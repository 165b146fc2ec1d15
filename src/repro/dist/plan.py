"""The fine-grained shard plan: the fleet check, world keys and task specs.

:func:`plan_fleet` is the one check of what a run asks for — ``workers``,
``peers`` and ``unit_count``, a sharded run's only settings.  It needs
no world, so the CLI calls it before generating one, and ``run_study``
calls it to choose between serial and sharded.  Nothing here starts a
process or opens a socket: a serial study imports this module and never
the runner (:mod:`repro.dist.coordinator`).

A *unit* is one sha256-partition of the sample corpus
(:func:`repro.determinism.shard_of`), cut as fine as the run asks: the
runner dispatches ``unit_count`` units (sized by :func:`plan_fleet`) so
that placement, stealing, and re-dispatch have something to schedule.
Because every occurrence of a hash lands in the same unit for a given
``unit_count``, deduplication stays unit-local and **any** assignment of
units to workers merges to the same digest — the property the
distributed runner's correctness rests on, tested in
``tests/test_dist_plan.py``.

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
import os

from ..core.cache import _canon

__all__ = ["AUTO_WORKERS_MAX", "FleetError", "TaskSpec", "UNITS_PER_WORKER",
           "plan_fleet", "world_key"]

#: default units per TCP peer: enough that stealing a straggler's queue
#: is meaningful, few enough that per-unit world setup stays amortized
UNITS_PER_WORKER = 4
#: parallel-width ceiling for ``workers="auto"`` — the envelope the
#: serial == merged-parallel invariant is exercised against in CI
AUTO_WORKERS_MAX = 4


class FleetError(ValueError):
    """A sharded run asked for a fleet it cannot have: bad ``workers``,
    ``peers`` or ``unit_count``.  Raised before anything runs, and typed
    so the CLI reports it as a usage error while any other ``ValueError``
    keeps its traceback."""


def plan_fleet(workers: int | str | None = None,
               peers: list[str] | None = None,
               unit_count: int | None = None) -> tuple[int, int] | None:
    """Check the fleet a study asks for; ``None`` means a serial study.

    Otherwise returns ``(width, units)``: the fleet width (local slots,
    or the peer count) and how many sha256 units the corpus is cut into
    — ``unit_count``, by default one per local slot and
    :data:`UNITS_PER_WORKER` per TCP peer.  ``workers`` may be ``None``
    or ``0`` (serial), ``N >= 1`` local slots, or ``"auto"`` (up to
    :data:`AUTO_WORKERS_MAX`, serial on one CPU).  A fleet the run
    cannot have raises :class:`FleetError`.
    """
    if workers == "auto":
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # pragma: no cover - non-Linux
            cpus = os.cpu_count() or 1
        workers = min(AUTO_WORKERS_MAX, cpus) if cpus > 1 else None
    if peers and workers:
        raise FleetError("workers and peers are exclusive: the peer "
                         "list already decides where units run")
    if not peers and not workers:
        if unit_count is not None:
            raise FleetError("unit_count needs workers or peers: a serial "
                             "study is not cut into units")
        return None
    if not peers and workers < 1:
        raise FleetError(f"workers must be >= 1, got {workers}")
    if unit_count is not None and unit_count < 1:
        raise FleetError(f"unit_count must be >= 1, got {unit_count}")
    if peers:
        return len(peers), unit_count or len(peers) * UNITS_PER_WORKER
    return workers, unit_count or workers


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
