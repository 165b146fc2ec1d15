"""The service tentpole's hard invariant: day-granular == monolithic.

A study executed one feed-day at a time — optionally checkpointed to
disk and resumed in a *different* runner — must reproduce the
monolithic ``run_study`` datasets byte for byte (``dataset_digest``
equality, the same oracle the golden tests use).  Also covers the
checkpoint store's paranoia: corruption, fingerprint mismatch, and
shape mismatch all degrade to a fresh start, never to a wrong result.
"""

import os

import pytest

from repro.core.cache import dataset_digest, study_fingerprint
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import DayRunner, run_study
from repro.netsim.faults import FAULT_PLANS
from repro.service import CheckpointStore, StudyCheckpoint, StudyService
from repro.world import StudyScale, generate_world

SCALE = StudyScale(sample_fraction=0.05, probe_days=4,
                   observe_duration=1800.0, observe_poll_interval=300.0,
                   scan_budget=120)
SEED = 4242

CONFIGS = {
    "plain": None,
    "mild": PipelineConfig(faults=FAULT_PLANS["mild"]),
}


@pytest.fixture(scope="module")
def baselines():
    """Monolithic run_study digests, one per fault setting."""
    digests = {}
    for name, config in CONFIGS.items():
        world = generate_world(seed=SEED, scale=SCALE)
        _malnet, _campaign, datasets = run_study(world, config=config)
        digests[name] = dataset_digest(datasets)
    return digests


# -- incremental == monolithic ------------------------------------------------


@pytest.mark.parametrize("faults", sorted(CONFIGS))
def test_day_by_day_equals_monolithic(faults, baselines):
    runner = DayRunner(seed=SEED, scale=SCALE, config=CONFIGS[faults])
    days = 0
    while not runner.pipeline_done:
        result = runner.run_next_day()
        assert result["day"] == days
        days += 1
    assert days == runner.total_days
    runner.finalize()
    assert dataset_digest(runner.datasets) == baselines[faults]


def test_run_study_still_uses_day_runner_serially(baselines):
    """The refactored serial run_study path is the DayRunner path."""
    world = generate_world(seed=SEED, scale=SCALE)
    _malnet, _campaign, datasets = run_study(world)
    assert dataset_digest(datasets) == baselines["plain"]


def test_mid_study_datasets_are_a_consistent_prefix():
    """At a day boundary the runner's view equals a bare pipeline's
    after the same days."""
    runner = DayRunner(seed=SEED, scale=SCALE)
    malnet = MalNet(generate_world(seed=SEED, scale=SCALE))
    for day in range(120):
        runner.run_next_day()
        malnet.run_day(day)
    assert dataset_digest(runner.datasets) == dataset_digest(malnet.datasets)


def test_run_next_day_raises_when_done():
    runner = DayRunner(seed=SEED, scale=SCALE,
                       config=PipelineConfig(study_days=3))
    runner.run_remaining_days()
    with pytest.raises(RuntimeError):
        runner.run_next_day()


def test_complete_pipeline_raises_while_days_pending():
    runner = DayRunner(seed=SEED, scale=SCALE)
    runner.run_next_day()
    with pytest.raises(RuntimeError):
        runner.complete_pipeline()


# -- restart + resume ---------------------------------------------------------


def test_restart_resume_mid_study(tmp_path, baselines):
    """Kill after N days, restore into a brand-new runner, finish:
    byte-identical to the uninterrupted monolithic run."""
    fingerprint = study_fingerprint(SEED, SCALE)
    store = CheckpointStore(str(tmp_path))
    first = DayRunner(seed=SEED, scale=SCALE)
    for _ in range(100):
        first.run_next_day()
    store.save(StudyCheckpoint(
        fingerprint=fingerprint, next_day=first.next_day,
        total_days=first.total_days, finalized=False,
        state=first.state_snapshot()))
    del first  # the "restart": nothing survives but the file

    loaded = store.load(fingerprint)
    assert loaded is not None and loaded.next_day == 100
    resumed = DayRunner(seed=SEED, scale=SCALE)
    resumed.restore_state(loaded.state)
    assert resumed.next_day == 100
    resumed.run_remaining_days()
    resumed.finalize()
    assert dataset_digest(resumed.datasets) == baselines["plain"]


def test_resume_after_finalize_preserves_probing(tmp_path, baselines):
    fingerprint = study_fingerprint(SEED, SCALE)
    store = CheckpointStore(str(tmp_path))
    first = DayRunner(seed=SEED, scale=SCALE)
    first.run_remaining_days()
    first.finalize()
    store.save(StudyCheckpoint(
        fingerprint=fingerprint, next_day=first.next_day,
        total_days=first.total_days, finalized=True,
        state=first.state_snapshot()))
    resumed = DayRunner(seed=SEED, scale=SCALE)
    resumed.restore_state(store.load(fingerprint).state)
    assert resumed.finalized
    assert dataset_digest(resumed.datasets) == baselines["plain"]


def _legacy_shard_state(runner, shards=2):
    """A state in the shape the removed in-process shard mode wrote."""
    return {"shards": shards, "next_day": runner.next_day,
            "total_days": runner.total_days,
            "shard_states": [runner.front.state_snapshot()] * shards,
            "completed": False}


def test_restore_rejects_mismatched_shape():
    runner = DayRunner(seed=SEED, scale=SCALE)
    runner.run_next_day()
    state = runner.state_snapshot()
    with pytest.raises(ValueError, match="in-process shard"):
        DayRunner(seed=SEED, scale=SCALE).restore_state(
            _legacy_shard_state(runner))
    truncated = DayRunner(seed=SEED, scale=SCALE,
                          config=PipelineConfig(study_days=5))
    with pytest.raises(ValueError):
        truncated.restore_state(state)


# -- checkpoint store paranoia ------------------------------------------------


def test_corrupt_checkpoint_loads_as_none(tmp_path):
    fingerprint = study_fingerprint(SEED, SCALE)
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(seed=SEED, scale=SCALE,
                       config=PipelineConfig(study_days=2))
    runner.run_next_day()
    path = store.save(StudyCheckpoint(
        fingerprint=fingerprint, next_day=1,
        total_days=2, finalized=False, state=runner.state_snapshot()))
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-7])  # truncate: checksum must fail
    assert store.load(fingerprint) is None
    assert store.rejected == 1
    os.unlink(path)
    assert store.load(fingerprint) is None  # missing is a quiet miss
    assert store.rejected == 1


def test_checkpoint_under_wrong_fingerprint_is_rejected(tmp_path):
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(seed=SEED, scale=SCALE,
                       config=PipelineConfig(study_days=2))
    runner.run_next_day()
    path = store.save(StudyCheckpoint(
        fingerprint="aaaa", next_day=1, total_days=2,
        finalized=False, state=runner.state_snapshot()))
    os.rename(path, store.path_for("bbbb"))
    assert store.load("bbbb") is None
    assert store.rejected == 1


# -- StudyService resume semantics -------------------------------------------


SHORT = PipelineConfig(study_days=40)


def test_service_restart_resumes_and_matches_batch(tmp_path, baselines):
    first = StudyService(seed=SEED, scale=SCALE,
                         checkpoint_dir=str(tmp_path))
    first.ingest_days(17)
    assert not first.resumed
    del first

    second = StudyService(seed=SEED, scale=SCALE,
                          checkpoint_dir=str(tmp_path))
    assert second.resumed
    assert second.runner.next_day == 17
    second.ingest_days(None)   # runs to the end and auto-finalizes
    assert second.finalized
    assert second.digest() == baselines["plain"]


def test_service_discards_checkpoint_with_different_shard_count(tmp_path):
    """A checkpoint of the removed in-process shard mode (two per-shard
    pipeline states) is discarded with a warning, not half-restored."""
    from repro.obs import create_telemetry

    first = StudyService(seed=SEED, scale=SCALE, config=SHORT,
                         checkpoint_dir=str(tmp_path))
    first.ingest_days(5)
    first.store.save(StudyCheckpoint(
        fingerprint=first.fingerprint, next_day=5, total_days=40,
        finalized=False, state=_legacy_shard_state(first.runner)))
    telemetry = create_telemetry()
    second = StudyService(seed=SEED, scale=SCALE, config=SHORT,
                          telemetry=telemetry, checkpoint_dir=str(tmp_path))
    assert not second.resumed
    assert second.runner.next_day == 0
    assert second.store.rejected == 1
    assert any(e["event"] == "service.checkpoint_discarded"
               for e in telemetry.events.events)


def test_service_without_checkpoint_dir_never_persists():
    service = StudyService(seed=SEED, scale=SCALE, config=SHORT)
    service.ingest_days(3)
    service.flush()
    assert service.store is None
