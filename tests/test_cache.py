"""Persistent study cache and the digest oracle: fingerprinting,
correctness, corrupt entries, and :func:`dataset_diff`'s reports.

The golden digests and the cold/warm cache equivalence live in the
equivalence matrix (``tests/test_equivalence.py``).
"""

import collections
import copy
import dataclasses
import enum
import os
import pickle

import pytest

from repro.core.cache import (
    StudyCache,
    _canon,
    _canon_text,
    code_fingerprint,
    dataset_diff,
    dataset_digest,
    study_fingerprint,
)
from repro.core.datasets import Datasets
from repro.core.pipeline import PipelineConfig
from repro.core.study import run_study
from repro.netsim.faults import FAULT_PLANS
from repro.netsim.packet import Protocol
from repro.world import XL_SCALE, generate_world

from .conftest import SMOKE

SEED = 20220322


class TestGoldenByteIdentity:
    def test_digest_discriminates(self, smoke_study):
        # the oracle is only an oracle if different outputs digest
        # differently
        _world, _malnet, _campaign, reference = smoke_study
        world = generate_world(seed=99, scale=SMOKE)
        _m, _c, datasets = run_study(world)
        assert dataset_digest(datasets) != dataset_digest(reference)
        assert dataset_diff(reference, datasets) is not None


class TestFingerprint:
    def test_stable_across_calls(self):
        a = study_fingerprint(SEED, SMOKE)
        b = study_fingerprint(SEED, SMOKE)
        assert a == b

    def test_none_config_equals_default_config(self):
        assert study_fingerprint(SEED, SMOKE) == \
            study_fingerprint(SEED, SMOKE, PipelineConfig())

    def test_seed_scale_config_faults_all_change_it(self):
        base = study_fingerprint(SEED, SMOKE)
        import dataclasses

        other_scale = dataclasses.replace(SMOKE, probe_days=5)
        variants = [
            study_fingerprint(SEED + 1, SMOKE),
            study_fingerprint(SEED, other_scale),
            study_fingerprint(SEED, SMOKE,
                              PipelineConfig(activation_rate=0.8)),
            study_fingerprint(SEED, SMOKE,
                              PipelineConfig(faults=FAULT_PLANS["mild"])),
            study_fingerprint(SEED, SMOKE,
                              PipelineConfig(faults=FAULT_PLANS["heavy"])),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_code_version_changes_it(self):
        real = study_fingerprint(SEED, SMOKE)
        fake = study_fingerprint(SEED, SMOKE, code="0" * 64)
        assert real != fake
        assert code_fingerprint() == code_fingerprint()  # memoized


class TestStudyCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = StudyCache(str(tmp_path))
        world = generate_world(seed=SEED, scale=SMOKE)
        _m, campaign, _datasets = run_study(world, cache=cache)
        assert cache.misses == 1 and cache.hits == 0

        world = generate_world(seed=SEED, scale=SMOKE)
        _m2, campaign2, _datasets2 = run_study(world, cache=cache)
        assert cache.hits == 1
        assert campaign2.observations == campaign.observations
        assert campaign2.discovered == campaign.discovered
        assert campaign2.response_matrix() == campaign.response_matrix()
        assert campaign2.repeat_response_rate() == \
            campaign.repeat_response_rate()

    def test_hit_shares_observation_objects_with_d_pc2(self, tmp_path):
        # the serial run aliases campaign.observations into datasets.d_pc2;
        # the restore must keep that aliasing on a hit
        cache = StudyCache(str(tmp_path))
        world = generate_world(seed=SEED, scale=SMOKE)
        run_study(world, cache=cache)
        world = generate_world(seed=SEED, scale=SMOKE)
        _m, campaign, datasets = run_study(world, cache=cache)
        if campaign.observations:
            assert campaign.observations[0] is datasets.d_pc2[0]

    def test_different_seed_misses(self, tmp_path):
        cache = StudyCache(str(tmp_path))
        run_study(generate_world(seed=SEED, scale=SMOKE), cache=cache)
        run_study(generate_world(seed=SEED + 1, scale=SMOKE), cache=cache)
        assert cache.hits == 0 and cache.misses == 2

    def test_different_faults_miss(self, tmp_path):
        cache = StudyCache(str(tmp_path))
        run_study(generate_world(seed=SEED, scale=SMOKE), cache=cache)
        config = PipelineConfig(faults=FAULT_PLANS["mild"])
        run_study(generate_world(seed=SEED, scale=SMOKE), config=config,
                  cache=cache)
        assert cache.hits == 0 and cache.misses == 2


class TestCorruptEntries:
    """Any damaged entry must read as a miss — never crash, never serve
    bad data."""

    def _populate(self, tmp_path):
        cache = StudyCache(str(tmp_path))
        world = generate_world(seed=SEED, scale=SMOKE)
        _m, _c, datasets = run_study(world, cache=cache)
        fingerprint = study_fingerprint(SEED, SMOKE)
        return cache, fingerprint, datasets

    def _recompute_equals_fresh(self, cache, datasets):
        world = generate_world(seed=SEED, scale=SMOKE)
        _m, _c, recomputed = run_study(world, cache=cache)
        diff = dataset_diff(datasets, recomputed)
        assert diff is None, diff

    def test_truncated_entry_recomputes(self, tmp_path):
        cache, fingerprint, datasets = self._populate(tmp_path)
        path = cache.path_for(fingerprint)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert cache.get(fingerprint) is None
        assert cache.rejected == 1
        self._recompute_equals_fresh(cache, datasets)

    def test_flipped_payload_byte_recomputes(self, tmp_path):
        cache, fingerprint, datasets = self._populate(tmp_path)
        path = cache.path_for(fingerprint)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(fingerprint) is None
        self._recompute_equals_fresh(cache, datasets)

    def test_garbage_file_recomputes(self, tmp_path):
        cache, fingerprint, datasets = self._populate(tmp_path)
        with open(cache.path_for(fingerprint), "wb") as fh:
            fh.write(b"not a cache entry at all")
        assert cache.get(fingerprint) is None
        self._recompute_equals_fresh(cache, datasets)

    def test_empty_file_recomputes(self, tmp_path):
        cache, fingerprint, _datasets = self._populate(tmp_path)
        open(cache.path_for(fingerprint), "wb").close()
        assert cache.get(fingerprint) is None

    def test_wrong_format_version_recomputes(self, tmp_path):
        cache, fingerprint, _datasets = self._populate(tmp_path)
        path = cache.path_for(fingerprint)
        blob = bytearray(open(path, "rb").read())
        blob[4] = 0xFE  # the format-version byte
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert cache.get(fingerprint) is None

    def test_checksummed_pickle_of_wrong_type_rejected(self, tmp_path,
                                                       monkeypatch):
        # a well-formed entry of the removed pickle format is refused
        # without being unpickled
        cache = StudyCache(str(tmp_path))
        import hashlib

        payload = pickle.dumps({"not": "a study"})
        blob = (b"RPSC" + bytes([1])
                + hashlib.sha256(payload).digest() + payload)
        os.makedirs(str(tmp_path), exist_ok=True)
        with open(cache.path_for("f" * 64), "wb") as fh:
            fh.write(blob)
        monkeypatch.setattr(pickle, "loads", None)
        assert cache.get("f" * 64) is None
        assert cache.rejected == 1

    def test_rewrite_after_corruption_serves_again(self, tmp_path):
        cache, fingerprint, datasets = self._populate(tmp_path)
        with open(cache.path_for(fingerprint), "wb") as fh:
            fh.write(b"garbage")
        # the recompute pass re-stores the entry...
        self._recompute_equals_fresh(cache, datasets)
        # ...so the next lookup hits
        entry = cache.get(fingerprint)
        assert entry is not None
        diff = dataset_diff(datasets, entry.datasets)
        assert diff is None, diff


class TestDatasetDiff:
    """The oracle's report: None exactly when the digests match, else the
    first differing dataset, record (by key) and field."""

    @pytest.fixture
    def reference(self, smoke_study):
        return smoke_study[3]

    @staticmethod
    def _diff(expected, actual):
        report = dataset_diff(expected, actual)
        assert (report is None) == \
            (dataset_digest(expected) == dataset_digest(actual)) == \
            (expected == actual)
        return report

    def test_equal_inputs_have_no_diff(self, reference):
        assert self._diff(reference, copy.deepcopy(reference)) is None
        assert self._diff(Datasets(), Datasets()) is None

    def test_non_compare_fields_are_invisible(self, reference):
        other = copy.deepcopy(reference)
        other.failed_shards = [1, 3]
        next(iter(other.d_c2s.values())).churn_key = "rotating"
        assert self._diff(reference, other) is None

    def test_names_a_changed_profile_field(self, reference):
        other = copy.deepcopy(reference)
        profile = other.profiles[5]
        profile.activated = not profile.activated
        assert self._diff(reference, other) == (
            f"profiles[5] (sha256='{profile.sha256[:8]}…' "
            f"day={profile.day}).activated: "
            f"{not profile.activated} != {profile.activated}")

    def test_names_a_changed_c2_field(self, reference):
        other = copy.deepcopy(reference)
        endpoint, record = list(other.d_c2s.items())[4]
        record.live_observations += 1
        assert self._diff(reference, other) == (
            f"d_c2s[4] (endpoint='{endpoint}').live_observations: "
            f"{record.live_observations - 1} != {record.live_observations}")

    def test_names_a_changed_probe_field(self, reference):
        other = copy.deepcopy(reference)
        probe = other.d_pc2[7]
        probe.engaged = not probe.engaged
        assert self._diff(reference, other) == (
            f"d_pc2[7] (c2_address={probe.c2_address} "
            f"c2_port={probe.c2_port} slot={probe.slot}).engaged: "
            f"{not probe.engaged} != {probe.engaged}")

    def test_names_a_changed_exploit_field(self, reference):
        other = copy.deepcopy(reference)
        record = other.d_exploits[2]
        before, record.loader = record.loader, "changed"
        assert self._diff(reference, other) == (
            f"d_exploits[2] (sha256='{record.sha256[:8]}…' "
            f"vuln_key='{record.vuln_key}').loader: "
            f"{before!r} != 'changed'")

    def test_names_a_changed_ddos_field(self, reference):
        other = copy.deepcopy(reference)
        record = other.d_ddos[3]
        record.verified = not record.verified
        day, sha256, seq = record.origin
        assert self._diff(reference, other) == (
            f"d_ddos[3] (origin=[{day}, '{sha256[:8]}…', {seq}]).verified: "
            f"{not record.verified} != {record.verified}")

    def test_swapped_c2_pair_is_an_order_difference(self, reference):
        other = copy.deepcopy(reference)
        items = list(other.d_c2s.items())
        items[2], items[3] = items[3], items[2]
        other.d_c2s = dict(items)
        assert other != reference    # == agrees with dataset_diff
        assert self._diff(reference, other) == (
            f"d_c2s[2]: order differs: expected (endpoint='{items[3][0]}'), "
            f"actual (endpoint='{items[2][0]}')")

    def test_missing_and_extra_records_are_only_in_one_side(self,
                                                           reference):
        fewer = copy.deepcopy(reference)
        gone = fewer.profiles.pop(8)
        total = len(reference.profiles)
        assert self._diff(reference, fewer) == (
            f"profiles[8] (sha256='{gone.sha256[:8]}…' day={gone.day}): "
            f"only in expected ({total} vs {total - 1} records)")
        assert self._diff(fewer, reference) == (
            f"profiles[8] (sha256='{gone.sha256[:8]}…' day={gone.day}): "
            f"only in actual ({total - 1} vs {total} records)")


# -- the canonical walk against the generic walk it replaced -----------------
#
# ``_canon`` dispatches on exact types and caches each dataclass's
# compared field names.  The generic walk below is frozen as it was
# before; every digest, diff and fingerprint must read the same
# canonical text from both.


def _generic_canon(value):
    """Frozen reference: the per-object ``dataclasses.fields`` walk."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _generic_canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.compare
            },
        }
    if isinstance(value, dict):
        return [[_generic_canon(k), _generic_canon(v)]
                for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(_generic_canon(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_generic_canon(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return repr(value)
    return value


def _same_canon(value) -> str:
    text = _canon_text(_canon(value))
    assert text == _canon_text(_generic_canon(value))
    return text


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_Pair = collections.namedtuple("_Pair", "left right")


@dataclasses.dataclass
class _Base:
    flag: bool
    count: int
    memo: dict = dataclasses.field(default_factory=dict, compare=False)


class _Undecorated(_Base):
    """A dataclass subclass that declares no field of its own."""


@dataclasses.dataclass
class _Extended(_Base):
    extra: tuple = ()
    hidden: float = dataclasses.field(default=0.5, compare=False)


CRAFTED = {
    "true-beside-1": [True, 1, False, 0, (1, True), {True: 1, 2: False},
                      frozenset({True, 2}), _Base(True, 1), _Base(1, True)],
    "int-enum": [_Level.LOW, Protocol.TCP, {_Level.HIGH: _Level.LOW},
                 frozenset(_Level)],
    "namedtuple": [_Pair(1, b"\x00\xff"), _Pair(_Pair(1, 2.5), [3])],
    "frozenset-of-tuples": frozenset({(2, "b"), (1, "a"), (1, "b", 0)}),
    "floats": [-0.0, 0.0, float("inf"), float("-inf"), float("nan"),
               1e16, 0.1, 2.0, (1.5,)],
    "bytes": [b"", b"\x00\xffmal", (b"a", b"b"), {b"k": b"v"}],
    "tuple-keys": {(1, 2): "x", ("a", (3, 4)): [1, 2], (): None},
    "dataclass-subclass": [_Undecorated(True, 1),
                           _Extended(False, 2, extra=(1, 2.5)),
                           _Base(False, 2)],
    "compare-false": [_Extended(True, 3, memo={"x": 1}, hidden=9.5),
                      _Undecorated(False, 0, memo={"y": b"z"})],
    "nested": {"sets": {5, 1, 3}, "empty": [set(), (), {}, ""],
               "deep": [[[{"a": (None, -1)}]]]},
}


class TestCanonicalWalk:
    @pytest.mark.parametrize("faults", ["none", "mild", "heavy"])
    @pytest.mark.parametrize("scenario", ["plain", "dga"])
    def test_smoke_study_datasets(self, serial_reference, scenario,
                                  faults):
        scale = dataclasses.replace(SMOKE, dga=scenario == "dga")
        config = (None if faults == "none"
                  else PipelineConfig(faults=FAULT_PLANS[faults]))
        _malnet, _campaign, datasets = serial_reference(SEED, scale, config)
        _same_canon(datasets)

    @pytest.mark.parametrize("ingredient", [
        XL_SCALE, SMOKE, PipelineConfig(),
        PipelineConfig(faults=FAULT_PLANS["heavy"], architectures=(
            "mips", "arm"), shard_index=1, shard_count=3),
    ], ids=["xl-scale", "smoke-scale", "default-config", "heavy-config"])
    def test_fingerprint_ingredients(self, ingredient):
        _same_canon(ingredient)

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_crafted_values(self, name):
        _same_canon(CRAFTED[name])

    def test_compare_false_fields_are_invisible(self):
        assert _same_canon(_Extended(True, 3, memo={"x": 1}, hidden=9.5)) \
            == _same_canon(_Extended(True, 3))
        assert '"__type__":"_Undecorated"' in \
            _same_canon(_Undecorated(True, 1))
