"""The fault-injection layer and the degradation paths it exercises.

Three layers of coverage:

* unit: :func:`is_ip_literal` strictness, :class:`FaultInjector` purity,
  the endpoint-parsing regressions ("1234" is a DNS name, not an IP);
* pipeline: a raising sample is quarantined (stub profile + counter +
  warning event) while the rest of the day proceeds; feed outages are
  backfilled by the next successful pull;
* system: a chaos-crashed shard worker is re-dispatched (or, when
  retries are exhausted, reported in ``failed_shards``) instead of
  wedging the study.  Serial == sharded under the fault plans is a row
  of the equivalence matrix (``tests/test_equivalence.py``).
"""

import dataclasses

import pytest

from repro.botnet.protocols.base import AttackCommand
from repro.core.cache import dataset_diff
from repro.core.datasets import Datasets, DdosRecord
from repro.core.ddos_analysis import issuing_c2_countries
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import run_study
from repro.determinism import shard_of
from repro.netsim.addresses import ip_to_int, is_ip_literal
from repro.netsim.faults import FAULT_PLANS, FaultInjector, FaultPlan
from repro.obs import create_telemetry
from repro.world import generate_world

from .conftest import SMOKE

SEED = 1337

#: every fault class enabled, rates high enough to fire at this scale
PLAN = FAULT_PLANS["heavy"]


@pytest.fixture
def serial_faulty(serial_reference):
    return serial_reference(SEED, SMOKE, PipelineConfig(faults=PLAN))[2]


# -- is_ip_literal and the endpoint-parsing regressions -----------------------


def test_is_ip_literal_strictness():
    for good in ("1.2.3.4", "0.0.0.0", "255.255.255.255", "198.51.100.9"):
        assert is_ip_literal(good), good
    for bad in ("1234", "1.2.3", "999.1.1.1", "1.2.3.4.5", "", "1..2.3",
                "1.2.3.", ".1.2.3", "0001.2.3.4", "1.2.3.4 ", "a.b.c.d",
                "-1.2.3.4"):
        assert not is_ip_literal(bad), bad


@pytest.mark.parametrize("hostile", ["1234", "1.2.3", "999.1.1.1"])
def test_resolve_endpoint_treats_numeric_names_as_dns(hostile):
    """Config-extracted strings that look numeric but are not addresses
    must go to the resolver (and miss), not crash ip_to_int."""
    world = generate_world(seed=SEED, scale=SMOKE)
    malnet = MalNet(world, PipelineConfig())
    internet = malnet.engine(world.epoch, "internet")
    assert malnet._resolve_endpoint(internet, hostile) is None


def test_uses_dns_on_numeric_non_address():
    from repro.binary.config import BotConfig

    assert BotConfig(family="mirai", c2_host="1234").uses_dns
    assert BotConfig(family="mirai", c2_host="999.1.1.1").uses_dns
    assert not BotConfig(family="mirai", c2_host="198.51.100.9").uses_dns


def test_ddos_country_analysis_survives_numeric_names():
    world = generate_world(seed=SEED, scale=SMOKE)
    datasets = Datasets()
    command = AttackCommand("udp", 0x01020304, 80, 60)
    datasets.d_ddos.append(DdosRecord("1234", "mirai", command, when=0.0))
    datasets.d_ddos.append(DdosRecord("999.1.1.1", "mirai", command, when=0.0))
    counts = issuing_c2_countries(datasets, world.asdb)
    assert counts == {"??": 2}


# -- fault injector determinism ----------------------------------------------


def test_fault_injector_is_pure_and_seed_dependent():
    a = FaultInjector(PLAN, seed=1)
    b = FaultInjector(PLAN, seed=1)
    c = FaultInjector(PLAN, seed=2)
    probes = [(host, t) for host in (11, 22, 33) for t in
              (0.0, 1800.5, 86400.25, 9 * 86400.0)]
    answers = [a.connection_fails(h, t) for h, t in probes]
    # same seed: identical answers regardless of query order
    assert [b.connection_fails(h, t) for h, t in reversed(probes)] == \
        list(reversed(answers))
    # a different seed draws different underlying units
    assert [c._unit("syn-window", h, 0) for h in range(8)] != \
        [a._unit("syn-window", h, 0) for h in range(8)]
    names = [f"host{i}.example" for i in range(50)]
    assert [a.dns_servfail(n, 100.0) for n in names] == \
        [b.dns_servfail(n, 100.0) for n in names]


def test_fault_plan_enabled_and_chaos_hooks():
    assert not FaultPlan().enabled
    assert FaultPlan(crash_shards=(1,)).enabled
    plan = FaultPlan(crash_shards=(1,), crash_attempts=2,
                     hang_shards=(0,), hang_attempts=1)
    injector = FaultInjector(plan, seed=0)
    assert injector.worker_crashes(1, 0) and injector.worker_crashes(1, 1)
    assert not injector.worker_crashes(1, 2)
    assert not injector.worker_crashes(0, 0)
    assert injector.worker_hangs(0, 0) and not injector.worker_hangs(0, 1)


# -- per-sample quarantine ----------------------------------------------------


def test_raising_sample_is_quarantined_not_fatal():
    """A sample whose analysis raises becomes a stub profile; the rest of
    the day's samples are still profiled."""
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    malnet = MalNet(world, PipelineConfig(), telemetry=telemetry)
    baseline = MalNet(generate_world(seed=SEED, scale=SMOKE),
                      PipelineConfig())
    baseline.run()
    target = next(p.sha256 for p in baseline.datasets.profiles
                  if p.activated)

    inner = malnet._analyze_binary_inner

    def sabotage(sha256, data, published, day, source):
        if sha256 == target:
            raise ValueError("malformed IoC string")
        return inner(sha256, data, published, day, source)

    malnet._analyze_binary_inner = sabotage
    malnet.run()

    profiles = malnet.datasets.profiles
    assert len(profiles) == len(baseline.datasets.profiles)
    stub = next(p for p in profiles if p.sha256 == target)
    assert stub.quarantined and not stub.activated
    assert stub.quarantine_reason == "ValueError: malformed IoC string"
    assert "QUARANTINED" in stub.summary_line()
    healthy = [p for p in profiles if p.sha256 != target]
    assert healthy == [p for p in baseline.datasets.profiles
                       if p.sha256 != target]
    assert telemetry.metrics.value("samples_quarantined",
                                   error="ValueError") == 1
    warnings = [e for e in telemetry.events.events
                if e["event"] == "pipeline.sample_quarantined"]
    assert len(warnings) == 1 and warnings[0]["sha256"] == target


def test_sandbox_crashes_every_attempt_quarantines():
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    malnet = MalNet(world, PipelineConfig(
        faults=FaultPlan(sandbox_crash_rate=1.0)), telemetry=telemetry)
    malnet.run()
    profiles = malnet.datasets.profiles
    assert profiles and all(p.quarantined for p in profiles)
    assert all(p.quarantine_reason.startswith("SandboxCrash")
               for p in profiles)
    # attempts - 1 retries were burned per sample before giving up
    assert telemetry.metrics.value("pipeline_retries", stage="sandbox") == \
        2 * len(profiles)
    assert telemetry.metrics.value("samples_quarantined",
                                   error="SandboxCrash") == len(profiles)


def test_transient_sandbox_crash_leaves_no_trace():
    """A crash on attempt 0 that recovers on attempt 1 must produce the
    exact datasets of a fault-free run: the fresh-stream-per-attempt
    contract."""
    clean = MalNet(generate_world(seed=SEED, scale=SMOKE), PipelineConfig())
    clean.run()

    class FirstAttemptCrashes(FaultInjector):
        def sandbox_crash(self, sha256, attempt):
            return attempt == 0

    flaky = MalNet(generate_world(seed=SEED, scale=SMOKE),
                   PipelineConfig(faults=FaultPlan(sandbox_crash_rate=1.0)))
    flaky.faults = FirstAttemptCrashes(FaultPlan(sandbox_crash_rate=1.0),
                                       flaky.world.seed)
    flaky.sandbox.faults = flaky.faults
    flaky.run()
    diff = dataset_diff(clean.datasets, flaky.datasets)
    assert diff is None, diff


# -- feed outage and backfill -------------------------------------------------


def test_feed_outage_is_backfilled_by_next_pull():
    """Entries published during an outage day surface on the next
    successful pull (widened window), including an outage on day 0."""
    day = 86400.0
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    malnet = MalNet(world, PipelineConfig(
        faults=FaultPlan(feed_outage_rate=1e-9)),  # enabled, never fires
        telemetry=telemetry)

    class DownUntil(FaultInjector):
        def __init__(self, cutoff):
            super().__init__(FaultPlan(feed_outage_rate=1.0), seed=0)
            self.cutoff = cutoff

        def feed_unavailable(self, feed, when, attempt):
            return when <= self.cutoff

    service = world.vt
    # window the pulls around the first published entry so the recovered
    # window is guaranteed non-empty
    base = min(e.published for e in service._feed) - 900.0
    malnet.faults = DownUntil(base + 2 * day)  # first two pulls fail
    pulls = [malnet._pull_feed(service, base + i * day, base + (i + 1) * day)
             for i in range(3)]
    assert pulls[0] == [] and pulls[1] == []
    # the day-2 pull recovered days 0-1 as well: its window reaches back
    # to the cursor, so it returns everything published in [base, 3d)
    direct = [e for e in service._feed
              if base <= e.published < base + 3 * day]
    assert pulls[2] == direct and direct
    events = telemetry.events.events
    assert len([e for e in events
                if e["event"] == "pipeline.feed_outage"]) == 2
    backfills = [e for e in events
                 if e["event"] == "pipeline.feed_backfill"]
    assert len(backfills) == 1 and backfills[0]["recovered"] == len(direct)
    # every failed attempt but the last of each pull counted as a retry
    assert telemetry.metrics.value("pipeline_retries", stage="feed") == 4


# -- the plan bites -----------------------------------------------------------


def test_faults_change_the_output(serial_faulty, serial_reference):
    """The plan actually bites: a faulty run differs from a clean one."""
    clean = serial_reference(SEED, SMOKE)[2]
    assert dataset_diff(clean, serial_faulty) is not None


# -- chaos: shard worker loss -------------------------------------------------


def _assert_exact_redispatches(redispatches, placements):
    """``redispatches`` counts exactly the placements that re-ran a
    failed unit: attempt > 0, steal twins excluded."""
    assert redispatches == sum(1 for p in placements
                               if p["attempt"] > 0 and not p["steal"])


def test_crashed_shard_worker_is_redispatched(monkeypatch, serial_faulty):
    """Shard 1's worker dies mid-study (its connection drops: no
    exception, no result); the EOF re-queues the unit at once and the
    merge is still byte-identical to the serial run."""
    monkeypatch.setattr("repro.dist.coordinator.SHARD_TIMEOUT", 30.0)
    plan = dataclasses.replace(PLAN, crash_shards=(1,), crash_attempts=1)
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    _malnet, _campaign, datasets = run_study(
        world, config=PipelineConfig(faults=plan), workers=2,
        telemetry=telemetry)
    diff = dataset_diff(serial_faulty, datasets)
    assert diff is None, diff
    assert datasets.failed_shards == []
    assert telemetry.metrics.value("shard_redispatches") == 1
    assert any(e["event"] == "study.shard_redispatched"
               for e in telemetry.events.events)
    _assert_exact_redispatches(
        telemetry.manifest["run"]["redispatches"],
        telemetry.manifest["extra"]["dist"]["placements"])


def test_exhausted_redispatch_reports_partial_merge(monkeypatch,
                                                    serial_faulty):
    """A shard that keeps dying gets exactly ``1 + MAX_REDISPATCH`` tries,
    however many slots are idle, and is then reported in failed_shards —
    a partial result, not an exception and not a silent gap."""
    monkeypatch.setattr("repro.dist.coordinator.SHARD_TIMEOUT", 15.0)
    monkeypatch.setattr("repro.dist.coordinator.MAX_REDISPATCH", 0)
    plan = dataclasses.replace(PLAN, crash_shards=(1,), crash_attempts=99)
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    _malnet, _campaign, datasets = run_study(
        world, config=PipelineConfig(faults=plan), workers=2,
        telemetry=telemetry)
    assert datasets.failed_shards == [1]
    assert telemetry.metrics.value("shards_failed") == 1
    partial = [e for e in telemetry.events.events
               if e["event"] == "study.partial_merge"]
    assert len(partial) == 1 and partial[0]["failed_shards"] == [1]
    assert "worker crashed" in partial[0]["failures"]["1"]
    # MAX_REDISPATCH = 0 is one try, although the other slot was free
    placements = telemetry.manifest["extra"]["dist"]["placements"]
    assert [p["attempt"] for p in placements if p["unit"] == 1] == [0]
    assert telemetry.metrics.value("shard_redispatches") == 0
    _assert_exact_redispatches(telemetry.manifest["run"]["redispatches"],
                               placements)
    # shard 0's slice of the corpus still made it into the merge, in
    # serial order
    assert datasets.profiles == [p for p in serial_faulty.profiles
                                 if shard_of(p.sha256, 2) == 0]


def test_worker_raising_is_also_redispatched(monkeypatch, serial_faulty):
    """A unit that raises (instead of dying) comes back as a ``failed``
    frame from its forked child; the unit is re-queued and the child
    lives on to run it."""
    from repro.core import parallel
    from repro.core.parallel import ShardedStudyRunner

    execute_shard = parallel.execute_shard

    def exploding(world, config, attempt, telemetry_on):
        if config.shard_index == 1 and attempt == 0:
            raise RuntimeError("worker exploded")
        return execute_shard(world, config, attempt, telemetry_on)

    # patched before start(): the forked children inherit it
    monkeypatch.setattr(parallel, "execute_shard", exploding)
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, workers=2,
                                config=PipelineConfig(faults=PLAN))
    results = runner.start().join()
    assert [r.shard_index for r in results] == [0, 1]
    assert results[1].attempt == 1
    assert runner.redispatches == 1 and runner.failed_shards == []
    assert runner.lost_workers == []
    _assert_exact_redispatches(runner.redispatches, runner.placements)
    merged = Datasets.merge([r.datasets for r in results])
    merged.d_pc2 = list(serial_faulty.d_pc2)
    diff = dataset_diff(serial_faulty, merged)
    assert diff is None, diff
