"""Tests for the DGA scenario: schedule purity, the defender loop, the
resolver wiring, the opt-in world/study plumbing, and the two new figures."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.botnet.families import (
    dga_domains,
    dga_families,
    dga_schedule_seed,
)
from repro.core import c2_analysis as ca
from repro.core.datasets import C2Record, Datasets
from repro.core.profiles import BinaryNetworkProfile
from repro.defense import (
    APPEAL_SUCCESS_RATE,
    APPEAL_WINDOW,
    DETECTION_DELAY_MAX,
    DETECTION_DELAY_MIN,
    DnsDefense,
    DomainScorer,
)
from repro.determinism import stable_unit
from repro.netsim.dns import DnsQuery, RCODE_SERVFAIL, Resolver, Zones, encode_name
from repro.obs.metrics import MetricsRegistry
from repro.world import SMOKE_SCALE, generate_world

SEED = 20220322
DGA_SCALE = dataclasses.replace(SMOKE_SCALE, dga=True)

seeds = st.integers(min_value=1, max_value=2**32 - 1)
days = st.integers(min_value=0, max_value=400)
family_names = st.sampled_from([fam.name for fam in dga_families()])


class TestDgaGenerator:
    def test_schedule_seed_nonzero_32bit(self):
        for fam in dga_families():
            for disc in (0, 1, 0xDEADBEEF):
                seed = dga_schedule_seed(SEED, fam.name, disc)
                assert 1 <= seed <= 0xFFFFFFFF

    def test_schedule_seed_distinguishes_campaigns(self):
        a = dga_schedule_seed(SEED, "mirai", 111)
        b = dga_schedule_seed(SEED, "mirai", 222)
        assert a != b

    def test_non_dga_family_yields_nothing(self):
        assert dga_domains(12345, "vpnfilter", 3) == []

    @given(seeds, family_names, days)
    @settings(max_examples=60, deadline=None)
    def test_pure_valid_and_in_profile(self, seed, family, day):
        first = dga_domains(seed, family, day)
        assert first == dga_domains(seed, family, day)
        profile = next(f for f in dga_families() if f.name == family).dga
        assert len(first) == profile.daily_candidates
        for domain in first:
            label, _, tld = domain.rpartition(".")
            assert tld in profile.tlds
            assert profile.min_length <= len(label) <= profile.max_length
            assert set(label) <= set(profile.alphabet)
            encode_name(domain)  # must be wire-encodable

    def test_days_differ(self):
        seed = dga_schedule_seed(SEED, "mirai")
        assert dga_domains(seed, "mirai", 0) != dga_domains(seed, "mirai", 1)

    def test_pure_across_processes(self):
        """The schedule must not depend on interpreter state (hash seed,
        RNG): a fresh process with a different PYTHONHASHSEED must derive
        the exact same candidate list the parent did."""
        seed = dga_schedule_seed(SEED, "gafgyt", 42)
        script = (
            "from repro.botnet.families import dga_domains\n"
            f"print(';'.join(dga_domains({seed}, 'gafgyt', 17)))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "271828"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env,
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip().split(";") == dga_domains(seed, "gafgyt", 17)


class TestDomainScorer:
    def test_generated_labels_score_as_dga(self):
        scorer = DomainScorer()
        for fam in dga_families():
            seed = dga_schedule_seed(SEED, fam.name, 7)
            for day in range(5):
                for domain in dga_domains(seed, fam.name, day):
                    assert scorer.is_dga(domain), (domain, scorer.score(domain))

    def test_vanity_c2_names_score_benign(self):
        scorer = DomainScorer()
        for name in ("cnc42.xyz", "scan99.net", "okiru73.cc",
                     "darkboat.ru", "sorapain.top", "update.pool.net"):
            assert not scorer.is_dga(name), (name, scorer.score(name))

    def test_score_is_bounded_and_pure(self):
        scorer = DomainScorer()
        for name in ("cnc42.xyz", "bcdfghjklmnp.cc", "", "42.net", "a.b.c"):
            value = scorer.score(name)
            assert 0.0 <= value <= 1.0
            assert value == scorer.score(name)


def _dga_name(defense, index=0):
    """A generated name (plus its registrar-feed shape) for block tests."""
    seed = dga_schedule_seed(SEED, "mirai", 9)
    return dga_domains(seed, "mirai", index)[0]


class TestDnsDefense:
    def test_benign_name_never_blocked(self):
        defense = DnsDefense(seed=SEED)
        defense.observe_registration("cnc42.xyz", since=0.0)
        assert not defense.blocked("cnc42.xyz", now=1e9)

    def test_detection_delay_window(self):
        defense = DnsDefense(seed=SEED)
        name = _dga_name(defense)
        defense.observe_registration(name, since=1000.0)
        decision = defense.decision_for(name)
        assert decision.blocked_from is not None
        low = 1000.0 + DETECTION_DELAY_MIN
        high = 1000.0 + DETECTION_DELAY_MAX
        assert low <= decision.blocked_from <= high
        assert not defense.blocked(name, now=1000.0)
        assert not defense.blocked(name, now=decision.blocked_from - 1.0)
        assert defense.blocked(name, now=decision.blocked_from)

    def test_deterministic_and_order_independent(self):
        seed = dga_schedule_seed(SEED, "tsunami", 3)
        names = dga_domains(seed, "tsunami", 5)
        forward, backward = DnsDefense(seed=7), DnsDefense(seed=7)
        for offset, name in enumerate(names):
            forward.observe_registration(name, since=100.0 * offset)
        for offset, name in reversed(list(enumerate(names))):
            backward.observe_registration(name, since=100.0 * offset)
        for name in names:
            assert forward.decision_for(name) == backward.decision_for(name)

    def test_earliest_registration_wins(self):
        defense = DnsDefense(seed=SEED)
        name = _dga_name(defense)
        defense.observe_registration(name, since=500.0)
        defense.observe_registration(name, since=100.0)
        assert defense.decision_for(name).registered_at == 100.0
        defense.observe_registration(name, since=900.0)
        assert defense.decision_for(name).registered_at == 100.0

    def test_appeal_lifts_block(self):
        defense = DnsDefense(seed=SEED)
        seed = dga_schedule_seed(SEED, "daddyl33t", 4)
        appealed = None
        for day in range(120):
            for name in dga_domains(seed, "daddyl33t", day):
                if stable_unit("dns-appeal", SEED, name) < APPEAL_SUCCESS_RATE:
                    appealed = name
                    break
            if appealed:
                break
        assert appealed is not None, "no appeal-winning name in 120 days"
        defense.observe_registration(appealed, since=0.0)
        decision = defense.decision_for(appealed)
        assert decision.overridden_from == decision.blocked_from + APPEAL_WINDOW
        assert defense.blocked(appealed, now=decision.blocked_from)
        assert not defense.blocked(appealed, now=decision.overridden_from)


class _AlwaysServfail:
    def dns_servfail(self, name, now):
        return True


class TestResolverDefenseWiring:
    def _resolver(self):
        metrics = MetricsRegistry()
        resolver = Resolver(Zones(DnsDefense(seed=SEED)), metrics=metrics)
        return resolver, metrics

    def test_blocked_lookup_counted(self):
        resolver, metrics = self._resolver()
        zones = resolver.zones
        name = _dga_name(zones.defense)
        zones.register(name, 0x01020304, since=0.0)
        blocked_from = zones.defense.decision_for(name).blocked_from
        assert resolver.resolve(name, now=0.0) == 0x01020304
        assert resolver.resolve(name, now=blocked_from + 1.0) is None
        assert metrics.value("dns_queries_total", outcome="resolved") == 1
        assert metrics.value("dns_queries_total", outcome="blocked") == 1
        assert metrics.value("dns_blocked_total") == 1
        assert metrics.value("dga_domains_total") == 2

    def test_benign_lookup_not_counted_as_dga(self):
        resolver, metrics = self._resolver()
        resolver.zones.register("cnc42.xyz", 0x01020304, since=0.0)
        assert resolver.resolve("cnc42.xyz", now=10.0) == 0x01020304
        assert metrics.value("dga_domains_total") == 0
        assert metrics.value("dns_blocked_total") == 0

    def test_all_outcomes_preseeded(self):
        _, metrics = self._resolver()
        for outcome in Resolver.OUTCOMES:
            assert metrics.value("dns_queries_total", outcome=outcome) == 0

    def test_blocked_answer_is_nxdomain_sinkhole(self):
        resolver, _ = self._resolver()
        zones = resolver.zones
        name = _dga_name(zones.defense)
        zones.register(name, 0x01020304, since=0.0)
        blocked_from = zones.defense.decision_for(name).blocked_from
        response = resolver.answer(DnsQuery(5, name), now=blocked_from + 1.0)
        assert response.is_nxdomain

    def test_servfail_still_counted(self):
        zones = Zones()
        zones.register("c2.example", 0x01020304, since=0.0)
        metrics = MetricsRegistry()
        resolver = Resolver(zones, _AlwaysServfail(), metrics)
        assert resolver.resolve("c2.example", now=10.0) is None
        response = resolver.answer(DnsQuery(9, "c2.example"), now=10.0)
        assert response.rcode == RCODE_SERVFAIL
        assert metrics.value("dns_queries_total", outcome="servfail") == 2


@pytest.fixture(scope="module")
def dga_world():
    return generate_world(seed=SEED, scale=DGA_SCALE)


class TestDgaWorld:
    def test_some_deployments_rotate(self, dga_world):
        rotating = [d for d in dga_world.truth.deployments if d.dga]
        assert rotating, "no deployment converted to DGA at smoke scale"
        for deployment in rotating:
            assert deployment.dga_seed != 0
            assert deployment.generations
            assert deployment.dga_domains

    def test_registered_domains_live_in_the_zone(self, dga_world):
        known = set(dga_world.network.zones.known_names())
        for deployment in dga_world.truth.deployments:
            for _day, domain in deployment.dga_domains:
                assert domain in known

    def test_rotating_campaign_configs_carry_the_seed(self, dga_world):
        seen = 0
        for campaign in dga_world.truth.campaigns:
            if campaign.c2 is None or not campaign.c2.dga:
                continue
            for planned in campaign.samples:
                config = planned.sample.config
                assert config.dga_seed == campaign.c2.dga_seed
                assert config.uses_dga
                assert config.c2_host == ""
                seen += 1
        assert seen > 0

    def test_off_by_default(self):
        world = generate_world(seed=SEED, scale=SMOKE_SCALE)
        assert not any(d.dga for d in world.truth.deployments)
        assert world.network.zones.defense is None
        for planned in world.truth.all_samples:
            assert planned.sample.config.dga_seed == 0


@pytest.fixture
def dga_datasets(serial_reference):
    return serial_reference(SEED, DGA_SCALE)[2]


class TestDgaStudy:
    def test_churn_clusters_link_daily_domains(self, dga_datasets):
        clusters = ca.domain_churn_clusters(dga_datasets)
        assert clusters
        assert any(len(records) > 1 for records in clusters.values())
        for key, records in clusters.items():
            for record in records:
                assert record.is_dns
                assert record.churn_key == key

    def test_churned_records_feed_the_dns_lifespan_cdf(self, dga_datasets):
        """Satellite: Figure 3 (dns=True) must include rotating-domain
        records, not silently drop them."""
        churned = [
            r for rs in ca.domain_churn_clusters(dga_datasets).values()
            for r in rs
        ]
        assert churned
        points = ca.lifetime_cdf(dga_datasets, dns=True)
        dns_spans = [r.observed_lifespan_days
                     for r in dga_datasets.d_c2s.values() if r.is_dns]
        assert len(points) == len(set(dns_spans))
        for record in churned:
            assert record.observed_lifespan_days in dns_spans

    def test_churn_lifetime_cdf_nonempty(self, dga_datasets):
        points = ca.domain_churn_lifetime_cdf(dga_datasets)
        assert points
        assert points[-1].fraction == 1.0

    def test_block_evasion_rate_in_range(self, dga_datasets):
        rate = ca.block_evasion_rate(dga_datasets)
        assert 0.0 < rate <= 1.0

    def test_plain_study_has_no_churn(self, serial_reference):
        datasets = serial_reference(SEED, SMOKE_SCALE)[2]
        assert ca.domain_churn_clusters(datasets) == {}
        assert ca.domain_churn_lifetime_cdf(datasets) == []
        assert ca.block_evasion_rate(datasets) == 0.0


def _record(endpoint, first_day, last_day, churn_key="", live=0):
    noon = 12 * 3600.0
    return C2Record(
        endpoint=endpoint, port=23, is_dns=True,
        first_seen=first_day * 86400.0 + noon,
        last_seen=last_day * 86400.0 + noon,
        first_day=first_day, last_day=last_day,
        live_observations=live, churn_key=churn_key,
    )


class TestChurnMathSynthetic:
    def test_cluster_span_covers_all_names(self):
        datasets = Datasets(d_c2s={
            "aaa.xyz": _record("aaa.xyz", 0, 0, churn_key="k1"),
            "bbb.xyz": _record("bbb.xyz", 2, 2, churn_key="k1"),
            "ccc.xyz": _record("ccc.xyz", 4, 5, churn_key="k1"),
            "static.example": _record("static.example", 0, 9),
        })
        points = ca.domain_churn_lifetime_cdf(datasets)
        # one cluster spanning day-0 noon .. day-5 noon = 5 days
        assert [(p.value, p.fraction) for p in points] == [(5, 1.0)]

    def test_per_domain_records_stay_short_lived(self):
        record = _record("aaa.xyz", 3, 3, churn_key="k1")
        assert record.observed_lifespan_days == 1

    def test_evasion_counts_only_referring_profiles(self):
        datasets = Datasets(
            d_c2s={
                "aaa.xyz": _record("aaa.xyz", 0, 0, churn_key="k1"),
                "bbb.xyz": _record("bbb.xyz", 1, 1, churn_key="k1"),
            },
            profiles=[
                BinaryNetworkProfile(
                    sha256="a" * 64, published=0.0, day=0, source="virustotal",
                    c2_endpoint="aaa.xyz", c2_is_dns=True, c2_live_on_day0=True),
                BinaryNetworkProfile(
                    sha256="b" * 64, published=0.0, day=1, source="virustotal",
                    c2_endpoint="bbb.xyz", c2_is_dns=True, c2_live_on_day0=False),
                BinaryNetworkProfile(
                    sha256="c" * 64, published=0.0, day=1, source="virustotal",
                    c2_endpoint="203.0.113.9", c2_live_on_day0=True),
            ],
        )
        assert ca.block_evasion_rate(datasets) == 0.5

    def test_evasion_empty_without_clusters(self):
        assert ca.block_evasion_rate(Datasets()) == 0.0
