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

* every behavioral coin in the simulation is hash-derived, and the two
  shared RNG streams (sandbox + virtual internet) are reseeded per sample
  from ``(world seed, sha256)`` (:meth:`MalNet._reseed_for`), so a
  binary's analysis is a pure function of the sample;
* sharding by sha256 keeps deduplication unit-local: every occurrence of
  a hash lands in the same unit, so no executor needs another's seen-set;
* records carry ``origin`` tuples fixing their global creation order,
  which lets the merge reconstruct the serial insertion order exactly.

*Where* the units execute is the coordinator's business
(:mod:`repro.dist.coordinator`), the one engine for every sharded run:
``workers=N`` forks N *local slots* (children running the ``repro
worker`` task loop on socketpairs), ``peers=["host:port", ...]`` dials
``repro worker`` daemons over TCP.  Either way the unit partition is by
sha256, placement is cache-aware, stragglers are stolen, and any
placement merges to the same digest.

**Failure handling**: a real fleet loses sandboxes.  One failure model
covers both kinds of peer: a crash is EOF, a lost worker is heartbeat
silence, a unit that raises comes back as a ``failed`` frame, and a hang
is a dispatch still running ``SHARD_TIMEOUT`` seconds after its
placement.  Each failed dispatch costs its unit one of
``MAX_REDISPATCH`` re-dispatches: the unit goes back in the queue at
``attempt + 1`` (a hung or lost local child is SIGKILLed and reaped
first), so a unit gets at most ``1 + MAX_REDISPATCH`` tries on any
fleet; both are constants of :mod:`repro.dist.coordinator`.  Every
local slot, whether forked in :meth:`start` or re-forked after the
whole fleet was lost, runs its units on the fork-inherited world: no
run writes it, so the parent's probing campaign leaves it as
generated.  Because each unit's output is a pure function of ``(seed,
scale, config)``, a retried unit produces the same bytes it would have
produced on the first try.  Units that use up their budget land in
:attr:`ShardedStudyRunner.failed_shards` so a partial merge is
reported, never silent.
"""

from __future__ import annotations

import dataclasses
import os
import time

from ..obs import EventLog, MetricsRegistry, NullEventLog, NullTracer, \
    Telemetry, Tracer
from ..world.generator import World
from .datasets import Datasets
from .pipeline import MalNet, PipelineConfig

__all__ = ["FleetError", "ShardedStudyRunner", "ShardResult",
           "execute_shard"]


class FleetError(ValueError):
    """A sharded run asked for a fleet it cannot have: bad ``workers``,
    ``peers`` or ``unit_count``.  Raised before anything runs, and typed
    so the CLI reports it as a usage error while any other ``ValueError``
    keeps its traceback."""


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


def execute_shard(seed: int, scale, config: PipelineConfig, attempt: int,
                  telemetry_on: bool, *,
                  world: World | None = None) -> ShardResult:
    """Run the pipeline over one sha256 unit — the executor body of the
    ``repro worker`` task loop.

    ``world`` is the already-generated world of ``(seed, scale)`` (a
    worker's cached one, shared by every unit it runs); ``None``
    regenerates it — same bytes either way, world generation is
    deterministic.  A fault plan's worker-crash draw raises
    :class:`~repro.netsim.faults.WorkerCrash`, on which the task loop
    drops its connection like a dead sandbox host.

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

        injector = FaultInjector(plan, seed)
        if injector.worker_crashes(config.shard_index, attempt):
            raise WorkerCrash(
                f"chaos crash: unit {config.shard_index} attempt {attempt}")
        if injector.worker_hangs(config.shard_index, attempt):
            time.sleep(plan.hang_seconds)
    if world is None:
        from ..world import generate_world

        world = generate_world(seed=seed, scale=scale)
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


class ShardedStudyRunner:
    """Runs the daily pipeline across sha256-partitioned executors.

    Usage is two-phase so the parent can do useful work (the probing
    campaign) while the executors grind through the units::

        runner = ShardedStudyRunner(world, workers=4).start()
        ...                       # parent-side work overlaps execution
        shards = runner.join()    # [ShardResult, ...] in unit order

    ``workers=N`` runs the units on N local slots, forked children of
    this process (one unit per slot by default); ``peers`` (``["host:
    port", ...]``, exclusive with ``workers``) dispatches them to
    ``repro worker`` daemons instead, cutting the corpus into
    ``unit_count`` fine-grained units (default 4× the fleet size) so the
    coordinator can place cache-aware and steal from stragglers.  Any
    unit count merges to the same digest.  These three are the only
    arguments of a sharded run, and this constructor is the one place
    that checks them (:class:`FleetError`); timeouts, the re-dispatch
    budget, stealing and heartbeats are constants of the coordinator
    (:mod:`repro.dist.coordinator`).

    After :meth:`join`, :attr:`failed_shards` lists the unit indexes
    that never produced a result (crashed/hung/raised on every try) and
    :attr:`failures` keeps the last error text of every unit that failed
    at least once; :attr:`transport_stats` carries the coordinator's
    placement/steal/wall accounting for the manifest.  Callers must
    treat a non-empty :attr:`failed_shards` as a partial merge.
    """

    def __init__(self, world: World, workers: int | None = None,
                 config: PipelineConfig | None = None,
                 telemetry_enabled: bool = False,
                 peers: list[str] | None = None,
                 unit_count: int | None = None):
        if peers and workers:
            raise FleetError("workers and peers are exclusive: the peer "
                             "list already decides where units run")
        if not peers:
            if workers is None or workers < 1:
                raise FleetError(f"workers must be >= 1, got {workers}")
            if not hasattr(os, "fork"):
                raise RuntimeError(
                    "local worker slots need os.fork(), which this "
                    "platform lacks; start `repro worker` daemons and "
                    "pass their host:port addresses as peers instead")
        if unit_count is not None and unit_count < 1:
            raise FleetError(f"unit_count must be >= 1, got {unit_count}")
        from ..dist.plan import default_unit_count

        self.world = world
        self.peers = list(peers or [])
        #: fleet width: local slots, or the peer count
        self.workers = len(self.peers) or workers
        self.config = config or PipelineConfig()
        #: when True, executors run real tracer/event-log instruments and
        #: ship their snapshots back for the cross-shard merge
        self.telemetry_enabled = telemetry_enabled
        #: sha256-partition granularity: how many units the corpus is
        #: cut into (== workers on local slots by default)
        self.shard_count = unit_count or (
            default_unit_count(self.workers) if self.peers else workers)
        #: unit indexes with no result (set by ``join``)
        self.failed_shards: list[int] = []
        #: last error text of each unit that failed at least once
        self.failures: dict[int, str] = {}
        #: placements that re-ran a failed unit (set by ``join``)
        self.redispatches = 0
        #: coordinator placement/steal/wall accounting (set by ``join``)
        self.transport_stats: dict = {}
        #: the engine that runs the units (built by ``start``)
        self.coordinator = None
        self._drained = False

    def start(self) -> "ShardedStudyRunner":
        """Connect the fleet and place the first units (non-blocking).

        Local slots fork here and run every unit on the world they
        inherit: the parent's runs share it without writing it."""
        if self.coordinator is not None:
            raise RuntimeError("runner already started")
        from ..dist.coordinator import Coordinator
        from ..dist.plan import TaskSpec

        spec = TaskSpec(seed=self.world.seed, scale=self.world.scale,
                        config=self.config, shard_count=self.shard_count,
                        telemetry=self.telemetry_enabled)
        self.coordinator = Coordinator(
            spec, self.peers,
            local_slots=0 if self.peers else self.workers)
        try:
            self.coordinator.start(self.world)
        except BaseException:
            self.coordinator.close()
            raise
        return self

    def join(self) -> list[ShardResult]:
        """Wait for every unit; returns results ordered by unit index.

        Units that used up their re-dispatch budget are recorded in
        :attr:`failed_shards` / :attr:`failures` and simply absent from
        the returned list.  Every child is reaped before this returns.
        """
        if self.coordinator is None:
            raise RuntimeError("runner not started")
        if self._drained:
            raise RuntimeError("runner already joined")
        self._drained = True
        coordinator = self.coordinator
        try:
            coordinator.join()
        finally:
            self.transport_stats = coordinator.stats()
        results = coordinator.results
        self.failed_shards = sorted(set(range(self.shard_count))
                                    - set(results))
        self.failures = dict(coordinator.failures)
        self.redispatches = coordinator.redispatches
        return sorted(results.values(), key=lambda r: r.shard_index)
