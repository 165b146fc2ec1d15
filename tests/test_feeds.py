"""Tests for the YARA engine, AVClass2 labeling, and the two feeds."""

import hashlib
import random

import pytest

from repro.binary.builder import build_sample
from repro.binary.config import BotConfig
from repro.feeds.avclass import label_sample, normalize_token, tokenize
from repro.feeds.malwarebazaar import MalwareBazaarService
from repro.feeds.virustotal import (
    DETECTION_THRESHOLD,
    VirusTotalService,
    ENGINE_COUNT,
    _LABEL_POOLS,
)
from repro.feeds.yara import RuleError, RuleSet, YaraRule, community_iot_rules
from repro.intel.vendors import IocIntel
from repro.world import FULL_SCALE, generate_world


def sample_for(family, seed=0, **kwargs):
    config = BotConfig(family=family, c2_host="203.0.113.9", c2_port=23, **kwargs)
    if family in ("mozi", "hajime"):
        config = BotConfig(family=family, p2p_bootstrap=["203.0.113.9:6881"])
    return build_sample(config, random.Random(seed))


class TestYara:
    def test_any_condition(self):
        rule = YaraRule("r", (b"aaa", b"bbb"), condition="any")
        assert rule.matches(b"xxbbbxx")
        assert not rule.matches(b"zzz")

    def test_all_condition(self):
        rule = YaraRule("r", (b"aaa", b"bbb"), condition="all")
        assert rule.matches(b"aaabbb")
        assert not rule.matches(b"aaa")

    def test_threshold_condition(self):
        rule = YaraRule("r", (b"a1", b"b2", b"c3"), condition=2)
        assert rule.matches(b"a1-c3")
        assert not rule.matches(b"a1")

    def test_validation(self):
        with pytest.raises(RuleError):
            YaraRule("r", ())
        with pytest.raises(RuleError):
            YaraRule("r", (b"a",), condition=5)
        with pytest.raises(RuleError):
            YaraRule("r", (b"a",), condition="most")

    def test_ruleset_duplicate_names(self):
        rules = RuleSet([YaraRule("r", (b"a",))])
        with pytest.raises(RuleError):
            rules.add(YaraRule("r", (b"b",)))

    @pytest.mark.parametrize(
        "family", ["mirai", "gafgyt", "tsunami", "daddyl33t", "mozi", "hajime",
                   "vpnfilter"],
    )
    def test_community_rules_label_every_family(self, family):
        rules = community_iot_rules()
        families = rules.families(sample_for(family).data)
        assert families == [family]


class TestAvclass:
    def test_tokenize(self):
        assert tokenize("Linux.Mirai.A!tr") == ["linux", "mirai", "a", "tr"]

    def test_generic_tokens_dropped(self):
        assert normalize_token("linux") is None
        assert normalize_token("trojan") is None
        assert normalize_token("mirai") == "mirai"

    def test_alias_expansion(self):
        assert normalize_token("bashlite") == "gafgyt"
        assert normalize_token("kaiten") == "tsunami"

    def test_plurality_vote(self):
        labels = ["Linux.Mirai.A", "ELF:Mirai-B", "Linux.Gafgyt.C"]
        assert label_sample(labels) == "mirai"

    def test_singleton_returns_none(self):
        assert label_sample(["Linux.Mirai.A"]) is None
        assert label_sample(["Trojan.Linux.Generic"]) is None
        assert label_sample([]) is None


class TestVirusTotalScan:
    @pytest.fixture(scope="class")
    def vt(self):
        return VirusTotalService()

    def test_detection_threshold_met(self, vt):
        report = vt.scan(sample_for("mirai"), now=0.0)
        assert report.positives >= DETECTION_THRESHOLD
        assert report.positives <= ENGINE_COUNT

    def test_scan_deterministic(self, vt):
        a = vt.scan(sample_for("gafgyt"), now=0.0)
        b = vt.scan(sample_for("gafgyt"), now=0.0)
        assert a.detections == b.detections

    def test_avclass_on_vt_labels_matches_family(self, vt):
        report = vt.scan(sample_for("gafgyt"), now=0.0)
        assert label_sample(report.engine_labels) == "gafgyt"

    def test_mozi_mislabeled_as_mirai_by_avclass(self, vt):
        """The paper's documented AVClass2 failure mode (section 2.2)."""
        report = vt.scan(sample_for("mozi"), now=0.0)
        assert label_sample(report.engine_labels) == "mirai"

    def test_yara_gets_mozi_right(self, vt):
        report = vt.scan(sample_for("mozi"), now=0.0)
        assert report.yara_families == ["mozi"]


def _frozen_engine_detects(engine, sample):
    """``VirusTotalService._engine_detects`` as it was when every scan
    built each detecting engine's label at once."""
    digest = hashlib.sha256(f"{engine}|{sample.sha256}".encode()).digest()
    if sample.variant == "chaff":
        return digest[0] < 5  # ~2% false-positive rate
    return digest[0] < 218  # ~0.85


def _frozen_engine_label(engine, sample):
    """``VirusTotalService._engine_label``, frozen the same way."""
    pool = _LABEL_POOLS[sample.family]
    digest = hashlib.sha256(f"label|{engine}|{sample.sha256}".encode()).digest()
    pick = digest[0] / 255.0
    cumulative = 0.0
    template = pool[-1][0]
    for candidate, weight in pool:
        cumulative += weight
        if pick <= cumulative:
            template = candidate
            break
    suffix = "ABCDEFGH"[digest[1] % 8]
    return template.format(v=suffix)


def frozen_detections(sample):
    """The eager engine loop: engine -> label for every detecting engine."""
    engines = (f"Engine{i:02d}" for i in range(ENGINE_COUNT))
    return {engine: _frozen_engine_label(engine, sample)
            for engine in engines if _frozen_engine_detects(engine, sample)}


def world_samples(world):
    """Every sample a world submits to VT, chaff included."""
    samples = [planned.sample for planned in world.truth.all_samples]
    samples += [world.vt.lookup_hash(sha256).sample
                for sha256 in sorted(world.truth.chaff_hashes)]
    return samples


class TestVerdictsOnRead:
    """A scan counts the detecting engines; their labels are built only
    when read, and read as the eager engine loop built them."""

    def assert_world_verdicts(self, world):
        samples = world_samples(world)
        assert any(sample.variant == "chaff" for sample in samples)
        for sample in samples:
            expected = frozen_detections(sample)
            report = world.vt.scan(sample, now=0.0)
            assert report.positives == len(expected), sample.sha256
            assert list(report.detections.items()) == list(
                expected.items()), sample.sha256
            assert report.engine_labels == list(expected.values())

    def test_smoke_world(self, smoke_world):
        self.assert_world_verdicts(smoke_world)

    def test_full_world(self):
        self.assert_world_verdicts(
            generate_world(seed=20220322, scale=FULL_SCALE))


class TestFeeds:
    def test_vt_feed_latency_within_24h(self):
        vt = VirusTotalService()
        entry = vt.submit_sample(sample_for("mirai"), when=1000.0,
                                 rng=random.Random(1))
        assert 0.0 <= entry.published - entry.submitted <= 24 * 3600.0

    def test_vt_feed_between(self):
        vt = VirusTotalService()
        entry = vt.submit_sample(sample_for("mirai"), when=1000.0,
                                 rng=random.Random(1))
        assert vt.feed_between(entry.published, entry.published + 1) == [entry]
        assert vt.feed_between(0, entry.published) == []

    def test_vt_resubmission_idempotent(self):
        vt = VirusTotalService()
        rng = random.Random(1)
        sample = sample_for("mirai")
        first = vt.submit_sample(sample, when=1000.0, rng=rng)
        state = rng.getstate()
        second = vt.submit_sample(sample, when=9999.0, rng=rng)
        assert first is second
        assert rng.getstate() == state  # a re-upload draws nothing
        assert vt.lookup_hash(sample.sha256) is first

    def test_bazaar_tags_and_source(self):
        bazaar = MalwareBazaarService()
        entry = bazaar.submit_sample(sample_for("gafgyt"), when=0.0,
                                     rng=random.Random(2))
        assert "gafgyt" in entry.tags and "mips" in entry.tags
        assert entry.source.startswith("osint-")
        assert len(bazaar) == 1

    def test_bazaar_lookup(self):
        bazaar = MalwareBazaarService()
        sample = sample_for("gafgyt")
        entry = bazaar.submit_sample(sample, when=0.0, rng=random.Random(2))
        assert bazaar.lookup_hash(sample.sha256) is entry
        assert bazaar.lookup_hash("0" * 64) is None


class TestVtThreatIntel:
    def test_unknown_ioc_benign(self):
        vt = VirusTotalService()
        assert not vt.is_malicious("203.0.113.77", query_time=10**9)

    def test_registered_ioc_flagged_later(self):
        vt = VirusTotalService()
        vt.register_ioc(IocIntel(
            ioc="203.0.113.77", first_public=10**9, obscurity=0.1,
            publicity_delay_days=2.0,
        ))
        assert not vt.is_malicious("203.0.113.77", query_time=10**9 + 3600)
        assert vt.is_malicious("203.0.113.77", query_time=10**9 + 40 * 86400)
        assert vt.eventual_vendor_count("203.0.113.77") > 5
