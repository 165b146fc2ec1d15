"""The day runner and the checkpoint store around it.

A study executed one feed-day at a time — checkpointed to disk and
resumed in a *different* runner, or a restarted ``StudyService`` — must
reproduce the monolithic ``run_study`` datasets byte for byte; those
are the ``day-resume`` and ``service-restart`` columns of the
equivalence matrix (``tests/test_equivalence.py``).  Here: the
mid-study prefix, the runner's lifecycle errors, and the checkpoint
store's paranoia — corruption, fingerprint mismatch, and shape mismatch
all degrade to a fresh start, never to a wrong result.
"""

import os

import pytest

from repro.core.cache import dataset_diff, study_fingerprint
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import DayRunner
from repro.service import CheckpointStore, StudyCheckpoint, StudyService
from repro.world import generate_world

from .conftest import SMOKE

SEED = 4242


# -- the day runner -----------------------------------------------------------


def test_mid_study_datasets_are_a_consistent_prefix():
    """At a day boundary the runner's view equals a bare pipeline's
    after the same days."""
    runner = DayRunner(seed=SEED, scale=SMOKE)
    malnet = MalNet(generate_world(seed=SEED, scale=SMOKE))
    for day in range(120):
        runner.run_next_day()
        malnet.run_day(day)
    diff = dataset_diff(malnet.datasets, runner.datasets)
    assert diff is None, diff


def test_run_next_day_raises_when_done():
    runner = DayRunner(seed=SEED, scale=SMOKE,
                       config=PipelineConfig(study_days=3))
    runner.run_remaining_days()
    with pytest.raises(RuntimeError):
        runner.run_next_day()


def test_complete_pipeline_raises_while_days_pending():
    runner = DayRunner(seed=SEED, scale=SMOKE)
    runner.run_next_day()
    with pytest.raises(RuntimeError):
        runner.complete_pipeline()


# -- restart shapes -----------------------------------------------------------


def _legacy_shard_state(runner, shards=2):
    """A state in the shape the removed in-process shard mode wrote."""
    return {"shards": shards, "next_day": runner.next_day,
            "total_days": runner.total_days,
            "shard_states": [runner.front.state_snapshot()] * shards,
            "completed": False}


def test_restore_rejects_mismatched_shape():
    runner = DayRunner(seed=SEED, scale=SMOKE)
    runner.run_next_day()
    state = runner.state_snapshot()
    with pytest.raises(ValueError, match="in-process shard"):
        DayRunner(seed=SEED, scale=SMOKE).restore_state(
            _legacy_shard_state(runner))
    truncated = DayRunner(seed=SEED, scale=SMOKE,
                          config=PipelineConfig(study_days=5))
    with pytest.raises(ValueError):
        truncated.restore_state(state)


# -- checkpoint store paranoia ------------------------------------------------


def test_corrupt_checkpoint_loads_as_none(tmp_path):
    fingerprint = study_fingerprint(SEED, SMOKE)
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(seed=SEED, scale=SMOKE,
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
    runner = DayRunner(seed=SEED, scale=SMOKE,
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


def test_service_discards_checkpoint_with_different_shard_count(tmp_path):
    """A checkpoint of the removed in-process shard mode (two per-shard
    pipeline states) is discarded with a warning, not half-restored."""
    from repro.obs import create_telemetry

    first = StudyService(seed=SEED, scale=SMOKE, config=SHORT,
                         checkpoint_dir=str(tmp_path))
    first.ingest_days(5)
    first.store.save(StudyCheckpoint(
        fingerprint=first.fingerprint, next_day=5, total_days=40,
        finalized=False, state=_legacy_shard_state(first.runner)))
    telemetry = create_telemetry()
    second = StudyService(seed=SEED, scale=SMOKE, config=SHORT,
                          telemetry=telemetry, checkpoint_dir=str(tmp_path))
    assert not second.resumed
    assert second.runner.next_day == 0
    assert second.store.rejected == 1
    assert any(e["event"] == "service.checkpoint_discarded"
               for e in telemetry.events.events)


def test_service_without_checkpoint_dir_never_persists():
    service = StudyService(seed=SEED, scale=SMOKE, config=SHORT)
    service.ingest_days(3)
    service.flush()
    assert service.store is None
