"""Tests for firewall/IDS rule compilation."""

import pytest

from repro.core.firewall import (
    FirewallRule,
    RuleBundle,
    compile_rules,
    coverage_report,
)


@pytest.fixture(scope="module")
def bundle(mid_study):
    _w, _m, _c, datasets = mid_study
    return compile_rules(datasets)


class TestCompilation:
    def test_bundle_nonempty(self, bundle):
        assert len(bundle) > 20

    def test_every_technology_present(self, bundle):
        technologies = {rule.technology for rule in bundle.rules}
        assert technologies == {"iptables", "dnsmasq", "snort"}

    def test_verified_c2s_all_blocked(self, mid_study, bundle):
        _w, _m, _c, datasets = mid_study
        text = bundle.render()
        for record in datasets.d_c2s.values():
            if record.verified:
                assert record.endpoint in text

    def test_dns_c2s_use_dnsmasq(self, mid_study, bundle):
        _w, _m, _c, datasets = mid_study
        dns_records = [r for r in datasets.d_c2s.values()
                       if r.is_dns and r.verified]
        for record in dns_records:
            matching = [r for r in bundle.by_technology("dnsmasq")
                        if record.endpoint in r.text]
            assert matching, record.endpoint

    def test_iptables_rules_both_directions(self, bundle):
        rules = [r.text for r in bundle.by_technology("iptables")]
        outputs = [r for r in rules if r.startswith("-A OUTPUT")]
        inputs = [r for r in rules if r.startswith("-A INPUT")]
        assert outputs and inputs

    def test_snort_signatures_per_vulnerability(self, mid_study, bundle):
        _w, _m, _c, datasets = mid_study
        observed = {record.vuln_key for record in datasets.d_exploits}
        snort_text = bundle.render("snort")
        for key in observed:
            assert key in snort_text

    def test_snort_sids_unique(self, bundle):
        sids = []
        for rule in bundle.by_technology("snort"):
            sid = rule.text.split("sid:")[1].split(";")[0]
            sids.append(sid)
        assert len(sids) == len(set(sids))

    def test_ddos_signatures_follow_observations(self, mid_study, bundle):
        _w, _m, _c, datasets = mid_study
        types = {record.attack_type for record in datasets.d_ddos}
        snort_text = bundle.render("snort")
        if "BLACKNURSE" in types:
            assert "itype:3" in snort_text
        if "VSE" in types:
            assert "TSource Engine" in snort_text

    def test_rules_have_provenance(self, bundle):
        for rule in bundle.rules:
            assert rule.reason
            assert "#" in rule.render()

    def test_deduplication(self):
        bundle = RuleBundle()
        rule = FirewallRule("iptables", "-A OUTPUT -d 1.2.3.4 -j DROP", "x")
        bundle.add(rule)
        bundle.add(rule)
        assert len(bundle) == 1

    def test_set_dedup_matches_list_reference(self, mid_study, bundle,
                                              monkeypatch):
        """The membership set keeps the list scan's order and contents,
        and re-adding any compiled rule is a no-op."""
        _w, _m, _c, datasets = mid_study

        def list_add(self, rule):
            if rule not in self.rules:
                self.rules.append(rule)

        with monkeypatch.context() as patch:
            patch.setattr(RuleBundle, "add", list_add)
            reference = compile_rules(datasets)
        assert bundle.rules == reference.rules
        again = compile_rules(datasets)
        for rule in reference.rules:
            again.add(rule)
        assert again.rules == reference.rules
        assert RuleBundle(list(reference.rules)).render() == bundle.render()

    def test_unverified_excluded_by_default(self, mid_study):
        _w, _m, _c, datasets = mid_study
        strict = compile_rules(datasets, include_unverified=False)
        lax = compile_rules(datasets, include_unverified=True)
        assert len(lax) >= len(strict)


class TestCoverage:
    def test_full_c2_coverage(self, mid_study, bundle):
        _w, _m, _c, datasets = mid_study
        report = coverage_report(datasets, bundle)
        assert report["c2_coverage"] == 1.0

    def test_binary_coverage_exceeds_c2_count_share(self, mid_study, bundle):
        """Section 3.3: blocking shared C2s covers many binaries each."""
        _w, _m, _c, datasets = mid_study
        report = coverage_report(datasets, bundle)
        assert report["binary_coverage"] > 0.9

    def test_empty_datasets(self):
        from repro.core.datasets import Datasets

        empty = Datasets()
        bundle = compile_rules(empty)
        assert len(bundle) == 0
        report = coverage_report(empty, bundle)
        assert report == {"c2_coverage": 0.0, "binary_coverage": 0.0}
