"""The sharded runner's machinery: parallel output == serial output.

Covers the layers separately so a regression points at its cause: the
sha256 partition itself, :meth:`Datasets.merge` semantics on synthetic
conflicting records, in-process shard+merge against the serial
pipeline, and the local slots' retry, crash and reaping accounting.
``run_study(workers=N)`` as a whole is a column of the equivalence
matrix (``tests/test_equivalence.py``).
"""

import inspect
import os
import time

import pytest

from repro.botnet.protocols.base import AttackCommand
from repro.core.cache import dataset_diff
from repro.core.datasets import Datasets
from repro.core.parallel import ShardedStudyRunner
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import run_study
from repro.determinism import shard_of
from repro.dist.plan import plan_fleet
from repro.dist.wire import heartbeat_timeout
from repro.dist.worker import TaskLoop, WorkerServer
from repro.obs import MetricsRegistry
from repro.obs.merge import fold_metrics
from repro.world import generate_world

from .conftest import SMOKE

SEED = 1337


@pytest.fixture
def serial(serial_reference):
    return serial_reference(SEED, SMOKE)[2]


def _merged_diff(unit_datasets, serial):
    """``dataset_diff`` of merged unit outputs against the serial study;
    the probing results (``d_pc2``) come from the parent, not the units."""
    merged = Datasets.merge(unit_datasets)
    merged.d_pc2 = list(serial.d_pc2)
    return dataset_diff(serial, merged)


def test_inprocess_shards_merge_to_serial(serial):
    """Shard + merge equivalence without multiprocessing in the loop."""
    shards = []
    for index in range(3):
        world = generate_world(seed=SEED, scale=SMOKE)
        malnet = MalNet(world, PipelineConfig(shard_index=index,
                                              shard_count=3))
        malnet.run()
        shards.append(malnet.datasets)
    diff = _merged_diff(shards, serial)
    assert diff is None, diff


def test_shards_partition_the_corpus(serial):
    """Every profiled sample lands in exactly one shard, none are lost."""
    hashes = [p.sha256 for p in serial.profiles]
    for count in (2, 4, 7):
        assigned = {}
        for sha256 in hashes:
            shard = shard_of(sha256, count)
            assert 0 <= shard < count
            assigned.setdefault(shard, []).append(sha256)
        assert sorted(h for block in assigned.values() for h in block) == \
            sorted(hashes)
    assert all(shard_of(sha256, 1) == 0 for sha256 in hashes)


# -- merge semantics on conflicting records -----------------------------------


def test_merge_c2_record_conflicts():
    """Two shards referring to one endpoint fold into serial semantics."""
    late, early = Datasets(), Datasets()
    a = late.c2_record("198.51.100.9", 23, False, origin=(5, "ffff"))
    a.sample_hashes.add("ffff")
    a.family_labels.add("mirai")
    a.first_day, a.last_day = 5, 9
    a.first_seen, a.last_seen = 500.0, 900.0
    a.live_observations = 2
    a.vt_malicious_day0 = True
    b = early.c2_record("198.51.100.9", 2323, False, origin=(2, "aaaa"))
    b.sample_hashes.add("aaaa")
    b.family_labels.add("gafgyt")
    b.first_day, b.last_day = 2, 2
    b.first_seen, b.last_seen = 200.0, 200.0
    b.live_observations = 1
    b.vt_malicious_recheck = True
    b.protocol_verified = True

    record = Datasets.merge([late, early]).d_c2s["198.51.100.9"]
    # the globally-earliest creator supplies the creation-time fields
    assert record.port == 2323
    assert record.origin == (2, "aaaa")
    # cumulative fields fold min/max/union/or/sum
    assert record.first_day == 2 and record.last_day == 9
    assert record.first_seen == 200.0 and record.last_seen == 900.0
    assert record.sample_hashes == {"aaaa", "ffff"}
    assert record.family_labels == {"gafgyt", "mirai"}
    assert record.live_observations == 3
    assert record.vt_malicious_day0 and record.vt_malicious_recheck
    assert record.protocol_verified and not record.issued_attack


def test_merge_c2_insertion_order_is_creation_order():
    shard_a, shard_b = Datasets(), Datasets()
    shard_a.c2_record("10.0.0.2", 23, False, origin=(3, "cc"))
    shard_a.c2_record("10.0.0.3", 23, False, origin=(1, "aa"))
    shard_b.c2_record("10.0.0.1", 23, False, origin=(2, "bb"))
    merged = Datasets.merge([shard_a, shard_b])
    assert list(merged.d_c2s) == ["10.0.0.3", "10.0.0.1", "10.0.0.2"]


def test_merge_ddos_record_conflicts():
    """Same (C2, command) in two shards dedups like serial ddos_record."""
    command = AttackCommand("udp", 0x01020304, 80, 60)
    other = AttackCommand("syn", 0x01020304, 80, 60)
    one, two = Datasets(), Datasets()
    a = one.ddos_record("c2.example", "mirai", command, when=900.0,
                        origin=(4, "dddd", 0))
    a.sample_hashes.add("dddd")
    a.via_heuristic = True
    b = two.ddos_record("c2.example", "gafgyt", command, when=100.0,
                        origin=(1, "bbbb", 1))
    b.sample_hashes.add("bbbb")
    b.verified = True
    two.ddos_record("c2.example", "gafgyt", other, when=150.0,
                    origin=(2, "cccc", 0))

    merged = Datasets.merge([one, two])
    assert len(merged.d_ddos) == 2
    first, second = merged.d_ddos
    # ordered by global creation order, earliest creator wins when/family
    assert first.command == command and first.origin == (1, "bbbb", 1)
    assert first.family == "gafgyt" and first.when == 100.0
    assert first.sample_hashes == {"bbbb", "dddd"}
    assert first.verified and first.via_heuristic
    assert second.command == other and second.origin == (2, "cccc", 0)


def test_merge_orders_profiles_and_exploits(serial):
    """Reversed shard inputs still come out in (day, sha256) order."""
    merged = Datasets.merge([serial, Datasets()])
    # a sample's exploit rows keep their capture order, which only holds
    # when each sample's records live in one shard — split like shard_of
    front, back = Datasets(), Datasets()
    front.profiles = [p for p in serial.profiles
                      if shard_of(p.sha256, 2) == 0]
    back.profiles = [p for p in serial.profiles
                     if shard_of(p.sha256, 2) == 1]
    front.d_exploits = [r for r in serial.d_exploits
                        if shard_of(r.sha256, 2) == 0]
    back.d_exploits = [r for r in serial.d_exploits
                       if shard_of(r.sha256, 2) == 1]
    remerged = Datasets.merge([back, front])
    assert merged.profiles == serial.profiles
    assert remerged.profiles == serial.profiles
    assert remerged.d_exploits == serial.d_exploits


# -- runner machinery ---------------------------------------------------------


def test_runner_rejects_bad_arguments():
    world = generate_world(seed=SEED, scale=SMOKE)
    with pytest.raises(ValueError, match="workers"):
        ShardedStudyRunner(world, workers=0)
    with pytest.raises(ValueError, match="exclusive"):
        ShardedStudyRunner(world, workers=2, peers=["127.0.0.1:1"])
    with pytest.raises(ValueError, match="exclusive"):
        run_study(world, workers=2, peers=["127.0.0.1:1"])
    with pytest.raises(ValueError, match="unit_count must be >= 1"):
        ShardedStudyRunner(world, workers=2, unit_count=0)
    # a serial study is not cut into units: the argument is refused,
    # not ignored
    with pytest.raises(ValueError, match="unit_count needs workers"):
        run_study(world, unit_count=3)


@pytest.mark.parametrize("entry, parameters", [
    (run_study, ["world", "config", "telemetry", "workers", "cache",
                 "peers", "unit_count"]),
    (ShardedStudyRunner, ["world", "workers", "config",
                          "telemetry_enabled", "peers", "unit_count"]),
    (plan_fleet, ["workers", "peers", "unit_count"]),
    (TaskLoop, ["worlds", "worker_id"]),
    (WorkerServer, ["host", "port", "world_cache_limit"]),
], ids=lambda value: getattr(value, "__name__", None))
def test_a_sharded_run_has_no_tuning_arguments(entry, parameters):
    """A sharded run takes where to run (``workers`` or ``peers``) and
    how fine to cut (``unit_count``); its timeouts, re-dispatch budget,
    stealing and heartbeats are module constants, so no layer grows a
    pass-through knob for them again."""
    assert list(inspect.signature(entry).parameters) == parameters


def test_runner_lifecycle_misuse_is_refused(smoke_world):
    runner = ShardedStudyRunner(smoke_world, workers=1)
    with pytest.raises(RuntimeError, match="^runner not started$"):
        runner.join()
    runner.start()
    try:
        with pytest.raises(RuntimeError, match="^runner already started$"):
            runner.start()
    finally:
        results = runner.join()
    assert [r.shard_index for r in results] == [0]
    with pytest.raises(RuntimeError, match="^runner already joined$"):
        runner.join()


def test_a_cache_hit_forks_no_local_slot(tmp_path, monkeypatch,
                                         shared_world, serial):
    """Constructing a runner opens nothing: a sharded study served from
    the cache never forks."""
    world = shared_world(SEED, SMOKE)
    run_study(world, cache=str(tmp_path))

    def no_fork():
        raise AssertionError("a cache hit forked a local slot")

    monkeypatch.setattr(os, "fork", no_fork)
    _malnet, _campaign, datasets = run_study(world, workers=2,
                                             cache=str(tmp_path))
    diff = dataset_diff(serial, datasets)
    assert diff is None, diff


def test_local_slots_without_fork_point_to_worker_peers(monkeypatch):
    monkeypatch.delattr(os, "fork")
    world = generate_world(seed=SEED, scale=SMOKE)
    with pytest.raises(RuntimeError, match="repro worker"):
        ShardedStudyRunner(world, workers=2)


def test_fold_counters_sums_worker_snapshots():
    worker = MetricsRegistry()
    worker.counter("samples_collected", "help").inc(7)
    worker.counter("samples_skipped", "help", labelnames=("reason",)) \
        .labels(reason="duplicate").inc(3)
    worker.gauge("some_gauge", "ignored").set(5)
    snapshot = worker.snapshot()

    parent = MetricsRegistry()
    parent.counter("samples_collected", "help").inc(1)
    fold_metrics(parent, snapshot, kinds=("counter",), world_global=True)
    fold_metrics(parent, snapshot, kinds=("counter",), world_global=True)
    assert parent.value("samples_collected") == 15
    assert parent.value("samples_skipped", reason="duplicate") == 6
    assert parent.get("some_gauge") is None
    # excluded counters (cross-shard deduplicated records) are not summed
    fold_metrics(parent, snapshot, exclude=("samples_collected",),
                 kinds=("counter",), world_global=True)
    assert parent.value("samples_collected") == 15
    assert parent.value("samples_skipped", reason="duplicate") == 9


# -- one retry model: per-dispatch SHARD_TIMEOUT, per-unit budget -------------


def _chaos_runner(plan, workers=2, unit_count=None):
    world = generate_world(seed=SEED, scale=SMOKE)
    return ShardedStudyRunner(world, workers=workers,
                              config=PipelineConfig(faults=plan),
                              unit_count=unit_count)


def _attempts(runner, unit):
    """The attempts ``unit`` was placed at (steal twins excluded)."""
    return [p["attempt"] for p in runner.placements
            if p["unit"] == unit and not p["steal"]]


def _assert_exact_redispatches(runner):
    """``redispatches`` counts exactly the placements that re-ran a
    failed unit: attempt > 0, steal twins excluded."""
    assert runner.redispatches == sum(
        1 for p in runner.placements if p["attempt"] > 0 and not p["steal"])


def test_timed_out_crash_is_reported_as_a_crash(monkeypatch):
    """A worker that died reads differently from one that is merely
    stuck — the 3 a.m. difference between 'restart the box' and 'attach
    a profiler'.  A crash is EOF on the slot's socketpair, so it is
    reported at once, not after ``SHARD_TIMEOUT``; with
    ``MAX_REDISPATCH = 0`` the unit gets exactly one try."""
    from repro.netsim.faults import FaultPlan

    monkeypatch.setattr("repro.dist.coordinator.SHARD_TIMEOUT", 10.0)
    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 0)
    plan = FaultPlan(name="crash-forever", crash_shards=(1,),
                     crash_attempts=99)
    runner = _chaos_runner(plan)
    started = time.monotonic()
    runner.start()
    runner.join()
    assert time.monotonic() - started < 10.0
    assert runner.failed_shards == [1]
    assert "worker crashed (connection closed)" in runner.failures[1]
    assert "shard_timeout" not in runner.failures[1]
    assert _attempts(runner, 1) == [0]
    _assert_exact_redispatches(runner)


def test_timed_out_hang_is_reported_as_a_hang(monkeypatch):
    from repro.netsim.faults import FaultPlan

    monkeypatch.setattr("repro.dist.coordinator.SHARD_TIMEOUT", 8.0)
    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 0)
    plan = FaultPlan(name="hang-forever", hang_shards=(1,),
                     hang_attempts=99, hang_seconds=120.0)
    runner = _chaos_runner(plan)
    runner.start()
    pids = _slot_pids(runner)
    runner.join()        # SIGKILLs and reaps the hung child
    assert runner.failed_shards == [1]
    assert "worker hung" in runner.failures[1]
    assert "shard_timeout=8.0s" in runner.failures[1]
    assert _attempts(runner, 1) == [0]
    _assert_exact_redispatches(runner)
    _assert_reaped(pids)


def test_shard_timeout_bounds_each_dispatch(monkeypatch, serial):
    """``SHARD_TIMEOUT`` counts from a dispatch's placement; time a unit
    waits in the queue is never charged.  On one slot, unit 1 waits out
    unit 0's whole hang (a full ``SHARD_TIMEOUT``) and still runs at
    attempt 0; the hung unit 0 is re-dispatched once and succeeds."""
    from repro.netsim.faults import FaultPlan

    monkeypatch.setattr("repro.dist.coordinator.SHARD_TIMEOUT", 8.0)
    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 1)
    plan = FaultPlan(name="hang-once", hang_shards=(0,),
                     hang_attempts=1, hang_seconds=60.0)
    runner = _chaos_runner(plan, workers=1, unit_count=2)
    started = time.monotonic()
    results = runner.start().join()
    assert time.monotonic() - started > 8.0
    assert runner.failed_shards == []
    assert [(r.shard_index, r.attempt) for r in results] == [(0, 1), (1, 0)]
    assert _attempts(runner, 0) == [0, 1]
    assert "shard_timeout=8.0s" in runner.failures[0]
    assert runner.redispatches == 1
    _assert_exact_redispatches(runner)
    diff = _merged_diff([r.datasets for r in results], serial)
    assert diff is None, diff


def test_a_unit_that_keeps_crashing_does_not_starve_the_others(
        monkeypatch, serial):
    """One slot, four units, unit 1 kills its worker on every try: it
    uses exactly its own budget, and the healthy units each run once."""
    from repro.netsim.faults import FaultPlan

    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 2)
    plan = FaultPlan(name="crash-forever", crash_shards=(1,),
                     crash_attempts=99)
    runner = _chaos_runner(plan, workers=1, unit_count=4)
    results = runner.start().join()
    assert runner.failed_shards == [1]
    assert [(r.shard_index, r.attempt) for r in results] == \
        [(0, 0), (2, 0), (3, 0)]
    assert _attempts(runner, 1) == [0, 1, 2]
    assert "worker crashed" in runner.failures[1]
    _assert_exact_redispatches(runner)
    merged = Datasets.merge([r.datasets for r in results])
    assert merged.profiles == [p for p in serial.profiles
                               if shard_of(p.sha256, 4) != 1]


@pytest.mark.parametrize("slots", [1, 2, 4])
def test_retry_budget_does_not_depend_on_the_fleet(slots, monkeypatch,
                                                   serial):
    """A failing unit gets ``1 + MAX_REDISPATCH`` tries at attempts
    ``0 … MAX_REDISPATCH`` on any fleet, and no healthy unit re-runs."""
    from repro.netsim.faults import FaultPlan

    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 2)
    for crash_attempts, failed in ((2, []), (3, [1])):
        plan = FaultPlan(name="crash-n", crash_shards=(1,),
                         crash_attempts=crash_attempts)
        runner = _chaos_runner(plan, workers=slots, unit_count=4)
        results = runner.start().join()
        assert runner.failed_shards == failed
        assert _attempts(runner, 1) == [0, 1, 2]
        assert all(r.attempt == 0 for r in results if r.shard_index != 1)
        _assert_exact_redispatches(runner)
        if not failed:
            diff = _merged_diff([r.datasets for r in results], serial)
            assert diff is None, diff


def test_parallel_counter_totals_match_serial():
    """Summed worker counters equal the serial run's, dedup included."""
    from repro.obs import create_telemetry

    def totals(workers):
        telemetry = create_telemetry()
        world = generate_world(seed=SEED, scale=SMOKE)
        run_study(world, telemetry=telemetry, workers=workers)
        return {
            (family.name, tuple(sorted(labels.items()))): child.value
            for family in telemetry.metrics.families()
            if family.kind == "counter"
            for labels, child in family.series()
        }

    assert totals(None) == totals(2)


# -- local slots: forked coordinator workers ----------------------------------


def _slot_pids(runner):
    return [peer.pid for peer in runner.peers if peer.pid is not None]


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_start_places_the_first_wave_on_local_slots():
    """Units run from ``start()`` on, so the parent's probing overlaps
    them: one unit per slot is already placed when ``start()`` returns."""
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, workers=2, unit_count=4).start()
    try:
        placements = runner.placements
        assert len(placements) == 2
        # each slot holds the parent's world from the fork on
        assert all(p["warm"] for p in placements)
    finally:
        results = runner.join()
    assert [r.shard_index for r in results] == [0, 1, 2, 3]


def test_first_units_run_on_the_inherited_world(monkeypatch, serial):
    """Local slots never generate a world: every unit, not only each
    slot's first, runs on the world the slot inherited from the parent,
    and every placement is warm."""
    import repro.world

    parent = os.getpid()
    generate = repro.world.generate_world

    def parent_only(*args, **kwargs):
        if os.getpid() != parent:
            raise AssertionError("a local slot regenerated the world")
        return generate(*args, **kwargs)

    monkeypatch.setattr(repro.world, "generate_world", parent_only)
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, workers=2, unit_count=4)
    results = runner.start().join()
    assert runner.redispatches == 0 and runner.failed_shards == []
    placements = runner.placements
    assert len(placements) == 4 and all(p["warm"] for p in placements)
    diff = _merged_diff([r.datasets for r in results], serial)
    assert diff is None, diff


def test_join_leaves_no_child_process():
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, workers=2).start()
    pids = _slot_pids(runner)
    results = runner.join()
    assert len(results) == 2
    _assert_reaped(pids)


def test_failed_probing_still_reaps_the_children(monkeypatch):
    import repro.core.study as study

    pids = []
    start = ShardedStudyRunner.start

    def recording_start(runner):
        start(runner)
        pids.extend(_slot_pids(runner))
        return runner

    def failing_probing(*args, **kwargs):
        raise RuntimeError("probing failed")

    monkeypatch.setattr(ShardedStudyRunner, "start", recording_start)
    monkeypatch.setattr(study, "run_probing", failing_probing)
    world = generate_world(seed=SEED, scale=SMOKE)
    with pytest.raises(RuntimeError, match="probing failed"):
        run_study(world, workers=2)
    assert len(pids) == 2
    _assert_reaped(pids)


def test_sigkilled_local_slot_is_lost_by_eof(monkeypatch, serial):
    """A child killed mid-wave is noticed by EOF on its socketpair — far
    sooner than the heartbeat timeout — and its unit moves to the other
    slot without moving a byte."""
    import signal

    monkeypatch.setattr("repro.dist.wire.HEARTBEAT_MISSES", 120)
    assert heartbeat_timeout() == 60
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, workers=2, unit_count=4)
    started = time.monotonic()
    runner.start()
    pids = _slot_pids(runner)
    os.kill(pids[0], signal.SIGKILL)
    results = runner.join()
    assert time.monotonic() - started < 60
    lost = runner.lost_workers
    assert [entry["worker"] for entry in lost] == ["local[0]"]
    assert "connection closed" in lost[0]["reason"]
    assert "heartbeat" not in lost[0]["reason"]
    assert runner.failed_shards == [] and runner.redispatches == 1
    _assert_exact_redispatches(runner)
    diff = _merged_diff([r.datasets for r in results], serial)
    assert diff is None, diff
    _assert_reaped(pids)


def test_patched_pipeline_runs_in_forked_children(tmp_path, monkeypatch,
                                                  serial):
    """Class attributes patched before ``run_study`` reach the units,
    which run in children forked by ``start()`` — never in the parent.
    (Benchmarks time each worker's own work this way.)"""
    parent = os.getpid()
    complete = MalNet.complete

    def recording_complete(malnet):
        if os.getpid() == parent:
            raise AssertionError("a unit ran in the parent process")
        (tmp_path / str(os.getpid())).touch()
        return complete(malnet)

    monkeypatch.setattr(MalNet, "complete", recording_complete)
    world = generate_world(seed=SEED, scale=SMOKE)
    _malnet, _campaign, datasets = run_study(world, workers=2)
    diff = dataset_diff(serial, datasets)
    assert diff is None, diff
    pids = {int(path.name) for path in tmp_path.iterdir()}
    assert len(pids) >= 2 and parent not in pids
