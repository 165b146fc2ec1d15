"""One-call study runner: the daily pipeline plus the probing campaign.

The default is serial: :class:`DayRunner` steps the pipeline one feed
day at a time.  ``run_study(world, workers=N)`` shards it over N local
slots — forked children of this process — and ``peers=[...]`` over
``repro worker`` daemons; both go through the one runner engine
(see :mod:`repro.core.parallel`).  Every path produces byte-identical
:class:`~repro.core.datasets.Datasets` for the same ``(seed, scale)``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import TYPE_CHECKING

from ..dist.plan import plan_fleet
from ..obs import NULL_TELEMETRY, Telemetry, build_manifest
from ..obs.merge import merge_shard_telemetry
from ..sandbox.qemu import MipsEmulator
from ..world.generator import World
from .cache import StudyCache, code_fingerprint, study_fingerprint
from .datasets import Datasets
from .journal import StudyState
from .pipeline import MalNet, PipelineConfig, total_study_days
from .probing import ProbingCampaign

if TYPE_CHECKING:
    from ..dist.coordinator import ShardedStudyRunner


def select_probe_binaries(world: World,
                          emulator: MipsEmulator) -> list[bytes]:
    """Pick the two weaponized samples (one Gafgyt, one Mirai, §2.3b).

    The study selected two of its collected samples; we pick the first
    sample of each family from the same corpus that activates in the
    run's ``emulator`` (so at the run's activation rate).
    """
    picks: list[bytes] = []
    for family in ("gafgyt", "mirai"):
        for planned in world.truth.all_samples:
            if planned.sample.family != family:
                continue
            if not emulator.activates(planned.sample.sha256):
                continue
            picks.append(planned.sample.data)
            break
    return picks


def run_probing(world: World, malnet: MalNet,
                telemetry: Telemetry | None = None) -> ProbingCampaign:
    """Run the D-PC2 campaign and merge its observations."""
    campaign = ProbingCampaign(
        network=world.network,
        engine=malnet.engine,
        sandbox=malnet.sandbox,
        subnets=list(world.truth.probe_subnets),
        sample_binaries=select_probe_binaries(world, malnet.sandbox.emulator),
        start=world.probe_start,
        days=world.scale.probe_days,
        telemetry=telemetry or malnet.telemetry,
    )
    campaign.run()
    malnet.datasets.d_pc2.extend(campaign.observations)
    return campaign


class DayRunner:
    """Day-granular, resumable execution of one study.

    The daily pipeline already advances in day units
    (:meth:`MalNet.run_day`); this runner owns the loop so execution can
    stop between any two days, hand its cross-day state (dedup set,
    feed cursors, datasets — :meth:`state`) to a journal, and continue
    later: in the same process, or after a full restart that replays
    the journal of :class:`repro.service.state.CheckpointStore`.  The
    invariant carried over from the sharded runner — per-sample
    analysis is a pure function of ``(world seed, sha256)`` — is
    exactly what makes the resumed run byte-identical to an
    uninterrupted one.  The runner is serial: sharded execution is
    ``run_study(workers=N)``.

    Lifecycle::

        runner = DayRunner(generate_world(seed=7, scale=SMOKE_SCALE))
        while not runner.pipeline_done:
            runner.run_next_day()          # one feed-day increment
        runner.complete_pipeline()          # TI re-query
        campaign = runner.run_probing_phase()
        datasets = runner.datasets          # == run_study(...)[2]
    """

    def __init__(self, world: World,
                 config: PipelineConfig | None = None,
                 telemetry: Telemetry | None = None):
        self.world = world
        self.config = config or PipelineConfig()
        self.telemetry = telemetry or NULL_TELEMETRY
        self.front = MalNet(world, config, telemetry=self.telemetry)
        self.total_days = total_study_days(self.config)
        #: first study day not yet executed (== count of completed days)
        self.next_day = 0
        self.campaign: ProbingCampaign | None = None
        self._completed = False

    # -- progress ----------------------------------------------------------

    @property
    def pipeline_done(self) -> bool:
        return self.next_day >= self.total_days

    @property
    def finalized(self) -> bool:
        """True once the TI re-query and probing have both run."""
        return self.campaign is not None

    @property
    def datasets(self) -> Datasets:
        """Everything ingested so far.

        After :meth:`complete_pipeline` this is *the* study output; at a
        day boundary mid-study it is the exact prefix a monolithic run
        would have accumulated by that day.
        """
        return self.front.datasets

    # -- execution ---------------------------------------------------------

    def run_next_day(self) -> dict:
        """Execute one feed-day."""
        if self.pipeline_done:
            raise RuntimeError(
                f"all {self.total_days} study days already ingested")
        day = self.next_day
        profiled = len(self.front.run_day(day))
        self.next_day = day + 1
        return {"day": day, "profiled": profiled,
                "remaining": self.total_days - self.next_day}

    def run_remaining_days(self) -> None:
        while not self.pipeline_done:
            self.run_next_day()

    def complete_pipeline(self) -> Datasets:
        """Close the day loop: the TI re-query."""
        if not self.pipeline_done:
            raise RuntimeError(
                f"{self.total_days - self.next_day} study days still "
                "pending; ingest them before completing the pipeline")
        if not self._completed:
            self.front.complete()
            self._completed = True
        return self.front.datasets

    def run_probing_phase(self) -> ProbingCampaign:
        """The D-PC2 campaign; extends the datasets' ``d_pc2``."""
        if self.campaign is None:
            if not self._completed:
                self.complete_pipeline()
            self.campaign = run_probing(self.front.world, self.front,
                                        self.telemetry)
        return self.campaign

    def finalize(self) -> ProbingCampaign:
        """Convenience: :meth:`complete_pipeline` + probing, with the
        same study-phase spans the batch runner emits."""
        if self.campaign is None:
            with self.telemetry.tracer.span("study.pipeline") as span:
                span.set_sim(*self.front.window)
                self.complete_pipeline()
            with self.telemetry.tracer.span("study.probing") as span:
                span.set_sim(*self.run_probing_phase().window)
        return self.campaign

    # -- checkpointing -----------------------------------------------------

    def state(self, rule_days: dict | None = None) -> StudyState:
        """The study's persistent state, by reference (not a copy).

        World content is *not* included — a restarted runner reuses the
        world or regenerates it from ``(seed, scale)`` — only the
        cross-day pipeline state, plus the probing campaign's discovery
        set once finalized (its observations are ``datasets.d_pc2``).
        ``rule_days`` belongs to the service and rides along for its
        journal.
        """
        state = self.front.state()
        state.next_day = self.next_day
        state.rule_days = {} if rule_days is None else rule_days
        if self.campaign is not None:
            state.discovered = self.campaign.discovered
        return state

    def restore_state(self, state: StudyState) -> None:
        """Adopt a replayed :class:`StudyState`; the runner must have been
        constructed with the same (seed, scale, config)."""
        if state.total_days != self.total_days:
            raise ValueError(
                f"state covers {state.total_days} study days, "
                f"this runner's config asks for {self.total_days}")
        self.front.restore_state(state)
        self.next_day = state.next_day
        self._completed = state.finalized
        self.campaign = None
        if state.finalized:
            # the finished campaign, rebuilt from its saved results: the
            # observations and discovery set are adopted verbatim, so its
            # derived views (``response_matrix``, repeat-response rate)
            # are the ones a fresh run would compute
            world = self.front.world
            self.campaign = ProbingCampaign(
                network=world.network,
                engine=self.front.engine,
                sandbox=self.front.sandbox,
                subnets=list(world.truth.probe_subnets),
                sample_binaries=[],
                start=world.probe_start,
                days=world.scale.probe_days,
                telemetry=self.telemetry,
            )
            self.campaign.observations = list(state.datasets.d_pc2)
            self.campaign.discovered = set(state.discovered)


def _run_parallel(
    runner: ShardedStudyRunner, malnet: MalNet, telemetry: Telemetry,
) -> ProbingCampaign:
    """Sharded pipeline on the runner, probing overlapped in the parent.

    :meth:`ShardedStudyRunner.start` places the first units on local
    slots and TCP peers alike, so the units run while the parent probes.
    Each probe slot runs on a traffic engine of its own, and no run
    writes the world — so the parent can run the campaign concurrently
    with the executors and still produce the same observations as the
    serial ordering.
    """
    with telemetry.tracer.span("study.pipeline", workers=runner.workers) \
            as pipeline_span:
        pipeline_span.set_sim(*malnet.window)
        runner.start()
        try:
            with telemetry.tracer.span("study.probing") as span:
                campaign = run_probing(runner.world, malnet, telemetry)
                span.set_sim(*campaign.window)
        except BaseException:
            runner.close()  # reap the children, then raise
            raise
        shards = runner.join()
    if runner.redispatches:
        telemetry.metrics.counter(
            "shard_redispatches",
            "failed shard tasks re-dispatched to a fresh worker",
        ).inc(runner.redispatches)
        telemetry.events.warning(
            "study.shard_redispatched", count=runner.redispatches,
            failures={str(k): v for k, v in runner.failures.items()})
    merged = Datasets.merge([shard.datasets for shard in shards])
    merged.d_pc2 = list(malnet.datasets.d_pc2)
    merged.failed_shards = runner.failed_shards
    if runner.failed_shards:
        telemetry.metrics.counter(
            "shards_failed", "shard units with no result after their "
            "re-dispatch budget (partial merge)",
        ).inc(len(runner.failed_shards))
        telemetry.events.warning(
            "study.partial_merge", failed_shards=runner.failed_shards,
            workers=runner.workers,
            failures={str(k): runner.failures[k]
                      for k in runner.failed_shards})
    malnet.datasets = merged
    # c2/ddos records are deduplicated across shards, so their creation
    # counters cannot be summed — the merge excludes them and re-counts
    # the merged records instead, which is exactly what the serial run
    # would have counted.  World-global series (feed pulls precede the
    # shard filter) are taken from the first reporting shard only.
    deduplicated = ("c2_records", "ddos_records")
    for position, shard in enumerate(shards):
        merge_shard_telemetry(
            telemetry, shard.shard_index,
            metrics_snapshot=shard.counters,
            trace_snapshot=shard.spans,
            events_snapshot=shard.events,
            parent_span=pipeline_span if telemetry.tracer.enabled else None,
            wall_seconds=shard.wall_seconds,
            attempt=shard.attempt,
            exclude_counters=deduplicated,
            world_global=(position == 0),
        )
    metrics = telemetry.metrics
    metrics.counter("c2_records").inc(len(merged.d_c2s))
    metrics.counter("ddos_records").inc(len(merged.d_ddos))
    return campaign


def _build_run_manifest(
    world: World, config: PipelineConfig | None, telemetry: Telemetry,
    datasets: Datasets, *, workers: int | None,
    runner: ShardedStudyRunner | None, cache: StudyCache | None,
    fingerprint: str | None, cached: bool, started: float,
    wall_seconds: float,
) -> dict:
    """Assemble the flight-recorder manifest for one finished run;
    ``runner`` is the joined runner of a sharded run, else ``None``."""
    effective = config or PipelineConfig()
    plan = effective.faults
    if fingerprint is None:
        fingerprint = study_fingerprint(world.seed, world.scale, config)
    study = {
        "seed": world.seed,
        "scale": dataclasses.asdict(world.scale),
        "workers": workers or 0,
        "faults": dataclasses.asdict(plan) if plan is not None else None,
        "config": dataclasses.asdict(effective),
        "code_fingerprint": code_fingerprint(),
        "study_fingerprint": fingerprint,
    }
    run = {
        "started": started,
        "finished": time.time(),
        "wall_seconds": round(wall_seconds, 6),
        "cached": cached,
        "transport": runner.transport if runner else "local",
        "redispatches": runner.redispatches if runner else 0,
    }
    phases = {name: stats
              for name, stats in telemetry.tracer.aggregate().items()
              if name.startswith("study.")}
    cache_info: dict = {"enabled": cache is not None}
    if cache is not None:
        cache_info.update(hit=cached, hits=cache.hits, misses=cache.misses,
                          rejected=cache.rejected)
    quarantined = [
        {"sha256": p.sha256, "day": p.day, "reason": p.quarantine_reason}
        for p in datasets.profiles if p.quarantined
    ]
    shards = []
    extra: dict = {}
    if runner is not None:
        shards = [
            {"shard": shard.shard_index, "attempt": shard.attempt,
             "wall_seconds": round(shard.wall_seconds, 6),
             "worker": shard.worker,
             "sizes": dict(shard.datasets.summary())}
            for shard in runner.results.values()
        ]
        if runner.failed_shards:
            extra["failures"] = {str(k): runner.failures[k]
                                 for k in runner.failed_shards}
        extra["dist"] = runner.stats()
    return build_manifest(
        study=study, run=run, phases=phases, cache=cache_info,
        shards=shards,
        quarantined=quarantined,
        failed_shards=datasets.failed_shards,
        datasets=dict(datasets.summary()),
        extra=extra or None,
    )


def run_study(
    world: World, config: PipelineConfig | None = None,
    telemetry: Telemetry | None = None, workers=None,
    cache: StudyCache | str | None = None, peers: list[str] | None = None,
    unit_count: int | None = None,
) -> tuple[MalNet, ProbingCampaign, Datasets]:
    """Execute the complete measurement study on a generated world.

    ``workers=None`` (or 0) runs everything in-process; ``workers=N`` for
    N >= 1 shards the daily pipeline over N forked local slots and
    merges, with identical results; ``workers="auto"`` picks a width that
    fits the machine.  Units whose every dispatch failed (see
    :mod:`repro.dist.coordinator`) are reported in
    ``datasets.failed_shards``.

    ``peers`` (``["host:port", ...]``, exclusive with ``workers``)
    dispatches the shard units to ``repro worker`` daemons instead —
    the fleet width follows the peer list, ``unit_count`` controls the
    fine-grained partition (default 4× the fleet; ``workers`` locally),
    and the merged output stays byte-identical to the serial run.
    :func:`~repro.dist.plan.plan_fleet` checks these three before
    anything runs; a bad combination raises
    :class:`~repro.dist.plan.FleetError`.

    ``cache`` (a :class:`~repro.core.cache.StudyCache` or a directory
    path) short-circuits the whole run when an entry for this exact
    (seed, scale, config, code version) exists — the returned datasets
    and observations are byte-identical to a fresh run's.  Partial
    results (failed shards) are never cached.
    """
    telemetry = telemetry or NULL_TELEMETRY
    sharded = None
    if plan_fleet(workers, peers, unit_count):
        # the runner (sockets, fork, connection waits) loads only here
        from ..dist.coordinator import ShardedStudyRunner

        sharded = ShardedStudyRunner(world, workers, config=config,
                                     telemetry_enabled=telemetry.enabled,
                                     peers=peers, unit_count=unit_count)
    fleet = sharded.workers if sharded else None
    started = time.time()
    started_clock = time.perf_counter()
    if isinstance(cache, (str, os.PathLike)):
        cache = StudyCache(cache)
    if cache is not None:
        cache.bind_metrics(telemetry.metrics)
    fingerprint = None
    if cache is not None:
        fingerprint = study_fingerprint(world.seed, world.scale, config)
        entry = cache.get(fingerprint)
        if entry is not None:
            telemetry.events.emit("study.cache_hit", fingerprint=fingerprint)
            runner = DayRunner(world=world, config=config,
                               telemetry=telemetry)
            runner.restore_state(entry)
            if telemetry.enabled:
                telemetry.manifest = _build_run_manifest(
                    world, config, telemetry, runner.datasets,
                    workers=fleet, runner=None, cache=cache,
                    fingerprint=fingerprint, cached=True, started=started,
                    wall_seconds=time.perf_counter() - started_clock)
            telemetry.events.emit(
                "study.complete", sizes=dict(runner.datasets.summary()))
            return runner.front, runner.campaign, runner.datasets
    runner = None
    if sharded:
        malnet = MalNet(world, config, telemetry=telemetry)
    else:
        runner = DayRunner(world=world, config=config, telemetry=telemetry)
        malnet = runner.front
    telemetry.events.emit("study.start", scale=world.scale.sample_fraction,
                          workers=fleet or 0)
    if sharded:
        campaign = _run_parallel(sharded, malnet, telemetry)
    else:
        with telemetry.tracer.span("study.pipeline") as span:
            span.set_sim(*malnet.window)
            runner.run_remaining_days()
            runner.complete_pipeline()
        with telemetry.tracer.span("study.probing") as span:
            campaign = runner.run_probing_phase()
            span.set_sim(*campaign.window)
    if fingerprint is not None and not malnet.datasets.failed_shards:
        state = malnet.state()
        state.next_day = state.total_days
        state.discovered = campaign.discovered
        cache.put(fingerprint, state)
        telemetry.events.emit("study.cache_store", fingerprint=fingerprint)
    if telemetry.enabled:
        telemetry.manifest = _build_run_manifest(
            world, config, telemetry, malnet.datasets, workers=fleet,
            runner=sharded, cache=cache, fingerprint=fingerprint,
            cached=False, started=started,
            wall_seconds=time.perf_counter() - started_clock)
    telemetry.events.emit("study.complete",
                          sizes=dict(malnet.datasets.summary()))
    return malnet, campaign, malnet.datasets
