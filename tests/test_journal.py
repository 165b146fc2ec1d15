"""The study journal: its codec, its replay and what reads it.

Every record type round-trips with *all* its fields — ``compare=False``
ones included, which the digest cannot see — and with exact types.
Resume goes through the journal alone: a sample that raised after its
C2 record was touched, a torn tail, a finalized file served as a cache
entry, and no ``pickle`` on any path that reads a file.  The fuzzing of
the reader lives in ``tests/test_fuzz_decoders.py``.
"""

import dataclasses
import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.botnet.protocols.base import AttackCommand
from repro.core import journal
from repro.core.cache import StudyCache, dataset_diff, study_fingerprint
from repro.core.datasets import C2Record, Datasets, DdosRecord
from repro.core.journal import JournalError, StudyState, encode_study, \
    replay
from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.study import DayRunner, run_study
from repro.service import CheckpointStore, StudyService
from repro.world import generate_world

from .conftest import SMOKE

SEED = 20220322
DGA = dataclasses.replace(SMOKE, dga=True)
#: derived or run-scoped Datasets fields a journal does not store
NOT_STORED = {"_ddos_index", "_profile_index", "failed_shards"}


def exact(value):
    """Every field of ``value``, ``compare=False`` ones too, with types."""
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                {f.name: exact(getattr(value, f.name))
                 for f in dataclasses.fields(value)
                 if f.name not in NOT_STORED})
    if isinstance(value, dict):
        return ("dict", [(exact(k), exact(v)) for k, v in value.items()])
    if isinstance(value, (set, frozenset)):
        return (type(value).__name__, sorted(repr(exact(v)) for v in value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(v) for v in value])
    return (type(value).__name__, repr(value))


def round_trip(state: StudyState) -> StudyState:
    blob = encode_study("f" * 64, state)
    restored, end = replay(blob, "f" * 64, state.total_days)
    assert end == len(blob)
    return restored


# -- the codec ---------------------------------------------------------------


@pytest.mark.parametrize("record", journal.RECORDS,
                         ids=lambda record: record.cls.__name__)
def test_field_lists_name_every_dataclass_field(record):
    """A field added to a record class must be added to its codec."""
    assert [name for name, _e, _d in record.fields] == \
        [f.name for f in dataclasses.fields(record.cls)]


def test_a_finished_dga_study_round_trips_every_field(serial_reference):
    """Profiles with exploits and attacks, C2 records, probes, exploit
    rows and DDoS records, plus the discovery set and the rule days."""
    _malnet, campaign, datasets = serial_reference(SEED, DGA)
    assert any(p.dga_seed for p in datasets.profiles)
    assert any(r.churn_key for r in datasets.d_c2s.values())
    assert any(p.attacks for p in datasets.profiles)
    assert any(p.exploits for p in datasets.profiles)
    assert datasets.d_ddos and datasets.d_pc2 and campaign.discovered
    rule_days = {("iptables", "-A OUTPUT -d 10.0.0.1 -j DROP"): 3,
                 ("snort", "alert ip any any -> 10.0.0.1 any"): 277}
    state = StudyState(total_days=277, datasets=datasets, next_day=277,
                       rule_days=rule_days,
                       discovered=campaign.discovered)
    restored = round_trip(state)
    assert exact(restored.datasets) == exact(datasets)
    assert restored.discovered == campaign.discovered
    assert list(restored.rule_days.items()) == list(rule_days.items())
    assert dataset_diff(datasets, restored.datasets) is None


def test_defaults_infinities_and_origins_keep_their_types():
    fresh = C2Record(endpoint="cnc.example", port=23, is_dns=True,
                     churn_key="4242")
    assert fresh.first_seen == float("inf") and fresh.origin == ()
    touched = C2Record(endpoint="10.0.0.1", port=666, is_dns=False,
                       origin=(3, "ab" * 32), first_seen=1.5, last_seen=7)
    ddos = DdosRecord(c2_endpoint="10.0.0.1", family="mirai",
                      command=AttackCommand("udp", 167772161, 80, 30),
                      when=0.0, sample_hashes={"cd" * 32, "ab" * 32},
                      origin=(3, "ab" * 32, 1))
    datasets = Datasets(d_c2s={r.endpoint: r for r in (fresh, touched)},
                        d_ddos=[ddos])
    state = StudyState(total_days=5, datasets=datasets, next_day=5,
                       discovered={(167772161, 666)})
    restored = round_trip(state)
    assert exact(restored.datasets) == exact(datasets)
    c2s = list(restored.datasets.d_c2s.values())
    assert c2s[0].first_seen == float("inf") == -c2s[0].last_seen
    assert c2s[0].churn_key == "4242"
    assert c2s[1].origin == (3, "ab" * 32)
    assert type(c2s[1].last_seen) is int       # ints stay ints
    assert restored.datasets.d_ddos[0].origin == (3, "ab" * 32, 1)


@pytest.mark.parametrize("record, value, field", [
    (journal.PROFILE, "0", "day"),
    (journal.PROFILE, 2, "activated"),
    (journal.PROFILE, [["x"]], "exploits"),
    (journal.C2, "nope", "sample_hashes"),
    (journal.C2, [[1]], "origin"),
    (journal.DDOS, ["ddos", 1, 2, 3], "command"),
    (journal.DDOS, ["bogus-method", 1, 2, 3], "command"),
    (journal.EXPLOIT_OBSERVATION, "zz", "payload"),
    (journal.PROBE, True, "c2_address"),
])
def test_decoding_checks_every_field(record, value, field):
    """A mistyped field raises JournalError naming the field."""
    sample = {
        journal.PROFILE: ["ab", 1.0, 0, "virustotal", None, "", False,
                          False, None, None, False, False, False, 0, [],
                          [], [], False, ""],
        journal.C2: ["x", 1, False, [], [], 0, 0, "inf", "-inf", 0, False,
                     False, False, False, [], ""],
        journal.DDOS: ["x", "mirai", ["udp", 1, 2, 3], 0.0, [], False,
                       False, []],
        journal.EXPLOIT_OBSERVATION: ["v", None, None, 80, "00"],
        journal.PROBE: [1, 2, 3, 4.0, True, ""],
    }[record]
    record.decode(sample)
    names = [name for name, _e, _d in record.fields]
    sample = list(sample)
    sample[names.index(field)] = value
    with pytest.raises(JournalError, match=field):
        record.decode(sample)
    with pytest.raises(JournalError, match="expected a list"):
        record.decode(sample[:-1])


# -- resume through the journal ----------------------------------------------


SHORT = PipelineConfig(study_days=60)


def _quarantined_c2_sample(world):
    """A sample of the short study whose C2 record other samples share."""
    runner = DayRunner(world, config=SHORT)
    runner.run_remaining_days()
    datasets = runner.datasets
    for profile in datasets.profiles:
        record = datasets.d_c2s.get(profile.c2_endpoint)
        if record is not None and len(record.sample_hashes) > 1 \
                and profile.day > 0:
            return profile
    pytest.skip("no shared C2 in the short smoke study")


def test_sample_raising_after_its_c2_was_touched_resumes_exactly(
        tmp_path, monkeypatch, shared_world):
    """The liveness probe raises for one sample after ``_record_c2`` has
    updated its C2 record: the sample is quarantined, the record keeps
    the update, and the day's journal record must carry it."""
    world = shared_world(SEED, SMOKE)
    victim = _quarantined_c2_sample(world)
    check_liveness = MalNet._check_liveness

    def flaky(self, internet, data, endpoint, port, sha256=None, **kwargs):
        if sha256 == victim.sha256:
            raise RuntimeError("liveness probe crashed")
        return check_liveness(self, internet, data, endpoint, port,
                              sha256=sha256, **kwargs)

    monkeypatch.setattr(MalNet, "_check_liveness", flaky)
    expected = DayRunner(world, config=SHORT)
    expected.run_remaining_days()
    profile = expected.datasets.profile_by_sha256(victim.sha256)
    assert profile.quarantined
    assert victim.sha256 in \
        expected.datasets.d_c2s[victim.c2_endpoint].sample_hashes

    fingerprint = study_fingerprint(SEED, SMOKE, SHORT)
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(world, config=SHORT)
    while runner.next_day <= victim.day:
        runner.run_next_day()
        store.save(fingerprint, runner.state())
    resumed = DayRunner(world, config=SHORT)
    resumed.restore_state(CheckpointStore(str(tmp_path)).load(
        fingerprint, resumed.total_days))
    diff = dataset_diff(runner.datasets, resumed.datasets)
    assert diff is None, diff
    resumed.run_remaining_days()
    diff = dataset_diff(expected.datasets, resumed.datasets)
    assert diff is None, diff


def test_a_span_may_cover_several_days(tmp_path, shared_world):
    """A save after several unsaved days writes one record for all of
    them, and a later save continues the sequence."""
    store = CheckpointStore(str(tmp_path))
    runner = DayRunner(shared_world(SEED, SMOKE), config=SHORT)
    for _ in range(30):
        runner.run_next_day()
    store.save("fp", runner.state())
    runner.run_next_day()
    store.save("fp", runner.state())
    state, end = replay(Path(store.path_for("fp")).read_bytes(), "fp")
    assert state.next_day == 31
    assert dataset_diff(runner.datasets, state.datasets) is None
    assert state.seen_hashes == runner.front._seen_hashes
    assert state.feed_cursor == runner.front._feed_cursor


def test_service_resumes_from_a_torn_tail(tmp_path, serial_reference):
    """A killed daemon leaves a torn last record: the restart replays the
    complete days, truncates the tail and finishes the study exactly."""
    root = str(tmp_path)
    first = StudyService(seed=SEED, scale=SMOKE, checkpoint_dir=root)
    first.ingest_days(10)
    path = first.store.path_for(first.fingerprint)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 7)
    second = StudyService(seed=SEED, scale=SMOKE, checkpoint_dir=root)
    assert second.resumed and second.runner.next_day == 9
    assert second.store.rejected == 1
    second.ingest_days(None)
    _m, _c, expected = serial_reference(SEED, SMOKE)
    diff = dataset_diff(expected, second.runner.datasets)
    assert diff is None, diff
    third = StudyService(seed=SEED, scale=SMOKE, checkpoint_dir=root)
    assert third.resumed and third.finalized
    assert third.rule_days == second.rule_days


def test_a_finalized_journal_is_a_cache_entry(tmp_path, serial_reference):
    root = tmp_path / "ckpt"
    service = StudyService(seed=SEED, scale=SMOKE, checkpoint_dir=str(root))
    service.ingest_days(None)
    cache = StudyCache(str(tmp_path / "cache"))
    os.makedirs(cache.root)
    shutil.copy(service.store.path_for(service.fingerprint),
                cache.path_for(service.fingerprint))
    _m, campaign, datasets = run_study(generate_world(seed=SEED,
                                                      scale=SMOKE),
                                       cache=cache)
    assert (cache.hits, cache.misses) == (1, 0)
    _m, expected_campaign, expected = serial_reference(SEED, SMOKE)
    assert dataset_diff(expected, datasets) is None
    assert campaign.discovered == expected_campaign.discovered


# -- no pickle on disk -------------------------------------------------------


def test_resume_and_cache_hits_never_unpickle(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a file read reached pickle")

    monkeypatch.setattr(pickle, "loads", refuse)
    monkeypatch.setattr(pickle, "load", refuse)
    root = str(tmp_path / "ckpt")
    config = PipelineConfig(study_days=40)
    first = StudyService(seed=SEED, scale=SMOKE, config=config,
                         checkpoint_dir=root)
    first.ingest_days(20)
    middle = StudyService(seed=SEED, scale=SMOKE, config=config,
                          checkpoint_dir=root)
    assert middle.resumed and middle.runner.next_day == 20
    middle.ingest_days(None)
    done = StudyService(seed=SEED, scale=SMOKE, config=config,
                        checkpoint_dir=root)
    assert done.resumed and done.finalized
    assert done.digest() == middle.digest()

    cache = str(tmp_path / "cache")
    run_study(generate_world(seed=SEED, scale=SMOKE), config=config,
              cache=cache)
    warm = StudyCache(cache)
    run_study(generate_world(seed=SEED, scale=SMOKE), config=config,
              cache=warm)
    assert warm.hits == 1


def test_only_the_wire_unpacks_pickle_envelopes():
    """``unpack_entry`` (the one ``pickle.loads`` in ``src/``) has a
    single caller, the distributed runner's wire codec."""
    package = Path(journal.__file__).resolve().parents[1]
    callers, loads = [], []
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(package).as_posix()
        if "unpack_entry(" in text.replace("def unpack_entry(", ""):
            callers.append(name)
        if "pickle.load" in text:
            loads.append(name)
    assert callers == ["dist/wire.py"]
    assert loads == ["core/cache.py"]
