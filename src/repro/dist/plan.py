"""The fine-grained shard plan: world keys and task specs.

A *unit* is one sha256-partition of the sample corpus
(:func:`repro.determinism.shard_of`), cut as fine as the run asks: the
runner dispatches ``unit_count`` units (sized by
:func:`repro.dist.coordinator.plan_fleet`) so that placement, stealing,
and re-dispatch have something to schedule.  Because every occurrence of a
hash lands in the same unit for a given ``unit_count``, deduplication
stays unit-local and **any** assignment of units to workers merges to
the same digest — the property the distributed runner's correctness
rests on, tested in ``tests/test_dist_plan.py``.

``world_key`` names the generated world a unit needs: workers keep a
small cache of worlds keyed by it and share a cached world across every
unit that needs it, and the coordinator prefers placing units on
workers that already hold the key warm (a warm unit starts at once, a
cold one first generates its world).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from ..core.cache import _canon

__all__ = ["TaskSpec", "world_key"]


def world_key(seed: int, scale) -> str:
    """Stable identity of a generated world, usable as a cache key on
    any host (derived from the canonical form of ``(seed, scale)``, the
    exact inputs world generation is a pure function of)."""
    blob = json.dumps([seed, _canon(scale)], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """Everything a worker needs to execute any unit of one study.

    One spec is shared by every unit of a run and rides in every
    ``task`` frame; only ``(unit, attempt)`` varies per dispatch.
    ``config`` is the *base* pipeline config — the worker stamps the
    per-unit shard window on with :meth:`config_for`.
    """

    seed: int
    scale: object
    config: object
    shard_count: int
    telemetry: bool = False

    def config_for(self, index: int):
        """The base config narrowed to unit ``index`` of ``shard_count``."""
        return dataclasses.replace(self.config, shard_index=index,
                                   shard_count=self.shard_count)

    @property
    def world_key(self) -> str:
        return world_key(self.seed, self.scale)
