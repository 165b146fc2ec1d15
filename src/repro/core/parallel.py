"""Sharded parallel execution of the daily pipeline (§2.2's fleet).

MalNet ran four CnCHunter sandboxes side by side, each analyzing its own
slice of the day's binaries.  This module reproduces that topology with
real executors: samples are partitioned by sha256
(:func:`~repro.determinism.shard_of`) into *units*, each executor runs
the full :class:`~repro.core.pipeline.MalNet` pipeline over its unit
against the one generated world (read-only; the run owns its traffic
engine), and the parent merges the unit outputs with
:meth:`Datasets.merge <repro.core.datasets.Datasets.merge>`.

The hard invariant: **the merged parallel output is byte-identical to the
serial run** on the same ``(seed, scale)``.  Three properties carry it:

* every behavioral coin in the simulation is hash-derived, and a sample
  is analyzed on streams of its own built from ``(world seed, sha256)``
  (:meth:`MalNet.activate`, :meth:`MalNet.engine`), so a binary's
  analysis is a pure function of the sample;
* sharding by sha256 keeps deduplication unit-local: every occurrence of
  a hash lands in the same unit, so no executor needs another's seen-set;
* records carry ``origin`` tuples fixing their global creation order,
  which lets the merge reconstruct the serial insertion order exactly.

*Where* the units execute is the business of
:class:`~repro.dist.coordinator.ShardedStudyRunner` (re-exported here),
the one engine for every sharded run: ``workers=N`` forks N *local
slots* (children running the ``repro worker`` task loop on
socketpairs), ``peers=["host:port", ...]`` dials ``repro worker``
daemons over TCP.  Either way the unit partition is by sha256,
placement is cache-aware, stragglers are stolen, and any placement
merges to the same digest.

**Failure handling**: a real fleet loses sandboxes.  The runner's one
failure model (a crash, a lost worker, a unit that raises, a hang) and
its per-unit re-dispatch budget are described in
:mod:`repro.dist.coordinator`.  Because each unit's output is a pure
function of ``(seed, scale, config)``, a retried unit produces the same
bytes it would have produced on the first try; units that use up their
budget land in the runner's ``failed_shards``, so a partial merge is
reported, never silent.
"""

from __future__ import annotations

import dataclasses
import time

# the runner is the coordinator engine, defined beside its wire and
# workers; no repro.dist module imports this one at module level, and a
# serial study never imports this one
from ..dist.coordinator import ShardedStudyRunner
from ..obs import EventLog, MetricsRegistry, NullEventLog, NullTracer, \
    Telemetry, Tracer
from ..world.generator import World
from .datasets import Datasets
from .pipeline import MalNet, PipelineConfig

__all__ = ["ShardedStudyRunner", "ShardResult", "execute_shard"]


@dataclasses.dataclass
class ShardResult:
    """One executor's output: its unit's datasets plus telemetry snapshots.

    ``counters`` is the executor's full metrics snapshot (counters *and*
    histograms — the name predates the histogram merge); ``spans`` and
    ``events`` are portable tracer/event-log snapshots, populated only
    when the parent ran with telemetry enabled.  ``wall_seconds`` is the
    executor-measured wall time of the whole unit task, ``attempt`` the
    try that produced this result (0 = first try, each re-dispatch adds
    one), and ``worker`` the worker that ran it (a daemon's address, or
    ``local[i]`` for a local slot).
    """

    shard_index: int
    datasets: Datasets
    counters: dict
    spans: dict | None = None
    events: dict | None = None
    wall_seconds: float = 0.0
    attempt: int = 0
    worker: str | None = None


def execute_shard(world: World, config: PipelineConfig, attempt: int,
                  telemetry_on: bool) -> ShardResult:
    """Run the pipeline over one sha256 unit — the executor body of the
    ``repro worker`` task loop.

    ``world`` is the generated world of the study (a worker's cached
    one, shared by every unit it runs).  A fault plan's worker-crash
    draw raises :class:`~repro.netsim.faults.WorkerCrash`, on which the
    task loop drops its connection like a dead sandbox host.

    The executor always keeps metrics (counter/histogram totals survive
    the merge); with ``telemetry_on`` it also runs a real tracer and
    event log whose snapshots the parent re-roots under a ``shard[i]``
    span (see :mod:`repro.obs.merge`) — parallel runs lose no spans or
    events.
    """
    started = time.perf_counter()
    plan = config.faults
    if plan is not None and plan.enabled:
        from ..netsim.faults import FaultInjector, WorkerCrash

        injector = FaultInjector(plan, world.seed)
        if injector.worker_crashes(config.shard_index, attempt):
            raise WorkerCrash(
                f"chaos crash: unit {config.shard_index} attempt {attempt}")
        if injector.worker_hangs(config.shard_index, attempt):
            time.sleep(plan.hang_seconds)
    if telemetry_on:
        telemetry = Telemetry(metrics=MetricsRegistry(), tracer=Tracer(),
                              events=EventLog())
    else:
        telemetry = Telemetry(metrics=MetricsRegistry(), tracer=NullTracer(),
                              events=NullEventLog())
    malnet = MalNet(world, config, telemetry=telemetry)
    malnet.run()
    return ShardResult(
        shard_index=config.shard_index,
        datasets=malnet.datasets,
        counters=telemetry.metrics.snapshot(),
        spans=telemetry.tracer.snapshot() if telemetry_on else None,
        events=telemetry.events.snapshot() if telemetry_on else None,
        wall_seconds=time.perf_counter() - started,
        attempt=attempt,
    )
