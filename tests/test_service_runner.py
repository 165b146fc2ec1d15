"""The day runner and the checkpoint store around it.

A study executed one feed-day at a time — journaled to disk and
resumed in a *different* runner, or a restarted ``StudyService`` — must
reproduce the monolithic ``run_study`` datasets byte for byte; those
are the ``day-resume`` and ``service-restart`` columns of the
equivalence matrix (``tests/test_equivalence.py``).  Here: the
mid-study prefix, the runner's lifecycle errors, and the checkpoint
store's paranoia — a torn tail, a foreign fingerprint, another study
length and a pre-journal file all degrade to a resume from the last
complete day or a fresh start, never to a wrong result.
"""

import hashlib
import os
import pickle

import pytest

from repro.core.cache import dataset_diff, study_fingerprint
from repro.core.journal import JournalError
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import DayRunner
from repro.service import CheckpointStore, StudyService

from .conftest import SMOKE

SEED = 4242


# -- the day runner -----------------------------------------------------------


def test_mid_study_datasets_are_a_consistent_prefix(shared_world):
    """At a day boundary the runner's view equals a bare pipeline's
    after the same days."""
    world = shared_world(SEED, SMOKE)
    runner = DayRunner(world)
    malnet = MalNet(world)
    for day in range(120):
        runner.run_next_day()
        malnet.run_day(day)
    diff = dataset_diff(malnet.datasets, runner.datasets)
    assert diff is None, diff


def test_run_next_day_raises_when_done(shared_world):
    runner = DayRunner(shared_world(SEED, SMOKE),
                       config=PipelineConfig(study_days=3))
    runner.run_remaining_days()
    with pytest.raises(RuntimeError):
        runner.run_next_day()


def test_complete_pipeline_raises_while_days_pending(shared_world):
    runner = DayRunner(shared_world(SEED, SMOKE))
    runner.run_next_day()
    with pytest.raises(RuntimeError):
        runner.complete_pipeline()


# -- restart shapes -----------------------------------------------------------


def test_restore_rejects_mismatched_shape(tmp_path, shared_world):
    """State of another study length is refused, by the runner and by the
    store, before any of it is adopted."""
    world = shared_world(SEED, SMOKE)
    runner = DayRunner(world)
    runner.run_next_day()
    truncated = DayRunner(world, config=PipelineConfig(study_days=5))
    with pytest.raises(ValueError, match="study days"):
        truncated.restore_state(runner.state())
    assert truncated.next_day == 0
    store = CheckpointStore(str(tmp_path))
    store.save("fp", runner.state())
    with pytest.raises(JournalError, match="study days"):
        store.load("fp", truncated.total_days)


# -- checkpoint store paranoia ------------------------------------------------


def test_corrupt_checkpoint_loads_as_none(tmp_path, shared_world):
    """A journal whose only day record is torn holds nothing to resume."""
    fingerprint = study_fingerprint(SEED, SMOKE)
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(shared_world(SEED, SMOKE),
                       config=PipelineConfig(study_days=2))
    runner.run_next_day()
    path = store.save(fingerprint, runner.state())
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-7])  # truncate: checksum must fail
    assert store.load(fingerprint) is None
    assert store.rejected == 1
    os.unlink(path)
    assert store.load(fingerprint) is None  # missing is a quiet miss
    assert store.rejected == 1


def test_checkpoint_under_wrong_fingerprint_is_rejected(tmp_path,
                                                        shared_world):
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(shared_world(SEED, SMOKE),
                       config=PipelineConfig(study_days=2))
    runner.run_next_day()
    path = store.save("aaaa", runner.state())
    os.rename(path, store.path_for("bbbb"))
    with pytest.raises(JournalError, match="another study"):
        store.load("bbbb")
    assert store.rejected == 1


# -- StudyService resume semantics -------------------------------------------


SHORT = PipelineConfig(study_days=40)


def test_service_discards_checkpoint_with_different_shard_count(
        tmp_path, monkeypatch):
    """A pre-journal checkpoint — the checksummed ``RPSC`` pickle entry,
    here holding two per-shard pipeline states of the removed in-process
    shard mode — is discarded with a warning, and never unpickled."""
    from repro.obs import create_telemetry

    first = StudyService(seed=SEED, scale=SMOKE, config=SHORT,
                         checkpoint_dir=str(tmp_path))
    legacy = {"shards": 2, "next_day": 5, "total_days": 40,
              "shard_states": [{"seen_hashes": set()}] * 2,
              "completed": False}
    payload = pickle.dumps(legacy)
    with open(first.store.path_for(first.fingerprint), "wb") as fh:
        fh.write(b"RPSC" + bytes([1]) + hashlib.sha256(payload).digest()
                 + payload)

    def refuse(*args, **kwargs):
        raise AssertionError("a checkpoint read reached pickle")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)
    telemetry = create_telemetry()
    second = StudyService(seed=SEED, scale=SMOKE, config=SHORT,
                          telemetry=telemetry, checkpoint_dir=str(tmp_path))
    assert not second.resumed
    assert second.runner.next_day == 0
    assert second.store.rejected == 1
    assert any(e["event"] == "service.checkpoint_discarded"
               for e in telemetry.events.events)
    second.ingest_days(3)           # the first save replaces the file
    third = StudyService(seed=SEED, scale=SMOKE, config=SHORT,
                         checkpoint_dir=str(tmp_path))
    assert third.resumed and third.runner.next_day == 3


def test_service_without_checkpoint_dir_never_persists():
    service = StudyService(seed=SEED, scale=SMOKE, config=SHORT)
    service.ingest_days(3)
    service.flush()
    assert service.store is None
