"""The monitoring views of the study service: alerts and rule deltas.

An in-process :class:`StudyService` ingests the seed-11 study one day
at a time and restarts from its checkpoint half way.  Its two
monitoring views must equal a frozen copy of the tick loop of the
removed ``ContinuousMonitor`` (:class:`MonitorReference`), which drives
a pipeline of its own: :func:`alerts` over the served profiles, and the
first day the service records for every ``(technology, text)`` rule.
After every day, and after finalize, ``/rules`` must serve exactly the
body a fresh :func:`compile_rules` renders.
"""

import json
from collections import Counter

import pytest

from repro.core.firewall import FirewallRule, RuleBundle, compile_rules
from repro.core.monitor import Alert, AlertKind, alerts
from repro.core.pipeline import MalNet, PipelineConfig, total_study_days
from repro.core.study import run_study
from repro.netsim.addresses import int_to_ip
from repro.netsim.faults import FAULT_PLANS
from repro.service import StudyService
from repro.service.handlers import RULE_TECHNOLOGIES, ServiceApi
from repro.world import StudyScale, generate_world

from .conftest import SMOKE

SCALE = StudyScale(sample_fraction=0.06, probe_days=2,
                   observe_duration=1200.0, scan_budget=80)
SEED = 11
#: the heavy-fault world of tests/test_faults.py
FAULT_SCALE = SMOKE
FAULT_SEED = 1337
HEAVY = PipelineConfig(faults=FAULT_PLANS["heavy"])


class MonitorReference:
    """Frozen copy of the removed ``ContinuousMonitor`` tick loop.

    It runs its own day loop, derives each day's alerts from the day's
    profiles, and compiles every rule after every day to find the rules
    shipped that day; the TI re-query closes the run without a compile.
    """

    def __init__(self, seed: int, scale, config=None):
        self.malnet = MalNet(generate_world(seed=seed, scale=scale), config)
        self._known_c2s: set[str] = set()
        self._known_vulns: set[str] = set()
        self._seen_commands: set[tuple] = set()
        self.alerts: list[Alert] = []
        #: (technology, text) -> day first shipped
        self.rule_days: dict[tuple[str, str], int] = {}
        for day in range(total_study_days(config)):
            self.tick(day)
        self.malnet.recheck_threat_intel()

    def tick(self, day: int) -> None:
        for profile in self.malnet.run_day(day):
            self._c2_alerts(day, profile)
            self._exploit_alerts(day, profile)
            self._attack_alerts(day, profile)
        for rule in compile_rules(self.malnet.datasets).rules:
            key = (rule.technology, rule.text)
            if key not in self.rule_days:
                self.rule_days[key] = day

    def _c2_alerts(self, day, profile) -> None:
        if not profile.has_c2 or profile.c2_endpoint in self._known_c2s:
            return
        self._known_c2s.add(profile.c2_endpoint)
        self.alerts.append(Alert(
            AlertKind.NEW_C2, day, profile.c2_endpoint,
            f"{profile.family_label or 'unknown'} C2 on port "
            f"{profile.c2_port}; live={profile.c2_live_on_day0}",
        ))
        if profile.c2_live_on_day0 and not profile.vt_flagged_day0:
            self.alerts.append(Alert(
                AlertKind.TI_BLIND_SPOT, day, profile.c2_endpoint,
                "live C2 unknown to all 89 TI feeds — block it now",
            ))

    def _exploit_alerts(self, day, profile) -> None:
        for observation in profile.exploits:
            if observation.vuln_key in self._known_vulns:
                continue
            self._known_vulns.add(observation.vuln_key)
            self.alerts.append(Alert(
                AlertKind.NEW_EXPLOIT, day, observation.vuln_key,
                f"first exploit sighting (loader {observation.loader}, "
                f"port {observation.port})",
            ))

    def _attack_alerts(self, day, profile) -> None:
        for attack in profile.attacks:
            key = (profile.c2_endpoint, attack.command.method,
                   attack.command.target_ip, attack.command.target_port)
            if key in self._seen_commands:
                continue
            self._seen_commands.add(key)
            self.alerts.append(Alert(
                AlertKind.ATTACK_IN_PROGRESS, day,
                int_to_ip(attack.command.target_ip),
                f"{attack.command.attack_type} ordered by "
                f"{profile.c2_endpoint} (duration "
                f"{attack.command.duration}s) — notify the victim's AS",
            ))


def _get(service, path, **query):
    status, _ctype, body, _headers = ServiceApi(service).handle(
        "GET", path, {k: str(v) for k, v in query.items()})
    assert status == 200, body
    return body


def _stale_rule_bodies(service) -> list:
    """Technologies whose ``/rules`` body differs from a fresh compile."""
    fresh = compile_rules(service.runner.datasets)
    stale = []
    for technology in (None, *RULE_TECHNOLOGIES):
        text = fresh.render(technology)
        query = {"technology": technology} if technology else {}
        if _get(service, "/rules", **query) != \
                (text + "\n" if text else "").encode():
            stale.append(technology or "all")
    return stale


class Ingested:
    """A study ingested day by day, its rule feed checked after each."""

    def __init__(self, seed, scale, config=None, checkpoint_dir=None,
                 restart_at=None):
        self.args = dict(seed=seed, scale=scale, config=config,
                         checkpoint_dir=checkpoint_dir)
        self.service = StudyService(**self.args)
        self.checks = 0
        self.stale: list[tuple] = []
        while not self.service.finalized:
            if self.service.runner.next_day == restart_at:
                self.service = StudyService(**self.args)
                self.resumed_at = self.service.runner.next_day
                self._check()
            self.service.ingest_days(1)   # the last day also finalizes
            self._check()

    def _check(self) -> None:
        self.checks += 1
        stale = _stale_rule_bodies(self.service)
        if stale:
            self.stale.append((self.service.runner.next_day, stale))


@pytest.fixture(scope="module")
def reference():
    return MonitorReference(SEED, SCALE)


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    total = total_study_days()
    return Ingested(SEED, SCALE,
                    checkpoint_dir=str(tmp_path_factory.mktemp("ckpt")),
                    restart_at=total // 2)


@pytest.fixture(scope="module")
def monitor(ingested):
    """The finished service and the alerts it serves."""
    service = ingested.service
    return service, alerts(service.runner.datasets.profiles)


class TestAlerts:
    def test_new_c2_alert_per_distinct_endpoint(self, monitor):
        service, found = monitor
        counts = Counter(alert.kind for alert in found)
        assert counts[AlertKind.NEW_C2] == len(service.runner.datasets.d_c2s)

    def test_attack_alerts_match_ddos_dataset(self, monitor):
        """One attack alert per D-DDOS (C2, method, target IP, target
        port) key.  D-DDOS also splits a command by its duration, which
        the alert feed does not."""
        service, found = monitor
        datasets = service.runner.datasets
        keys = {(r.c2_endpoint, r.command.method, r.command.target_ip,
                 r.command.target_port) for r in datasets.d_ddos}
        raised = {(p.c2_endpoint, a.command.method, a.command.target_ip,
                   a.command.target_port)
                  for p in datasets.profiles for a in p.attacks}
        attack = [a for a in found
                  if a.kind == AlertKind.ATTACK_IN_PROGRESS]
        assert raised == keys
        assert len(attack) == len(keys)
        assert sorted(a.subject for a in attack) == \
            sorted(int_to_ip(key[2]) for key in keys)

    def test_exploit_alert_once_per_vulnerability(self, monitor):
        service, found = monitor
        subjects = [a.subject for a in found
                    if a.kind == AlertKind.NEW_EXPLOIT]
        assert len(subjects) == len(set(subjects))
        observed = {r.vuln_key for r in service.runner.datasets.d_exploits}
        assert set(subjects) == observed

    def test_ti_blind_spot_alerts_only_for_unflagged_live(self, monitor):
        service, found = monitor
        blind = [a for a in found if a.kind == AlertKind.TI_BLIND_SPOT]
        assert blind
        for alert in blind:
            record = service.runner.datasets.d_c2s[alert.subject]
            assert record.live_observations >= 1

    def test_alert_rendering(self):
        alert = Alert(AlertKind.NEW_C2, 5, "1.2.3.4", "mirai C2")
        text = alert.render()
        assert "day   5" in text and "new-c2" in text and "1.2.3.4" in text


class TestRuleDelta:
    def test_rules_ship_incrementally_without_duplicates(self, ingested):
        service = ingested.service
        lines = _get(service, "/rules").decode().splitlines()
        assert lines  # something shipped
        assert len(lines) == len(set(lines))
        days = sorted(set(service.rule_days.values()))
        assert len(days) > 1
        for since in days:
            later = _get(service, "/rules", since=since).decode()
            assert later.splitlines() == [
                rule.render() for rule in service.rules.rules
                if service.rule_days[rule.technology, rule.text] >= since]

    def test_final_delta_equals_full_compilation(self, ingested):
        service = ingested.service
        full = {(r.technology, r.text)
                for r in compile_rules(service.runner.datasets).rules}
        assert set(service.rule_days) == full

    def test_rules_ship_no_later_than_discovery_day(self, ingested):
        """Just-in-time: a verified C2's block rule ships the day its
        binary is analyzed — or even earlier, when the address already
        surfaced as another campaign's downloader."""
        service = ingested.service
        on_time = 0
        for endpoint, record in service.runner.datasets.d_c2s.items():
            if not record.verified:
                continue
            shipped_day = service.first_rule_day(endpoint)
            assert shipped_day is not None
            assert shipped_day <= record.first_day
            if shipped_day == record.first_day:
                on_time += 1
        assert on_time > 0  # the common case is same-day shipping


def test_first_rule_day_matches_endpoint_metadata():
    service = StudyService(seed=SEED, scale=SCALE,
                           config=PipelineConfig(study_days=1))
    wide = FirewallRule("iptables", "-A OUTPUT -d 11.2.3.45 -j DROP",
                        "C2", endpoint="11.2.3.45")
    narrow = FirewallRule("iptables", "-A OUTPUT -d 1.2.3.4 -j DROP",
                          "C2", endpoint="1.2.3.4")
    service.rules = RuleBundle([wide, narrow])
    service.rule_days = {("iptables", wide.text): 0,
                         ("iptables", narrow.text): 3}
    # "1.2.3.4" is a substring of "11.2.3.45": a text match would
    # credit day 0
    assert service.first_rule_day("1.2.3.4") == 3
    assert service.first_rule_day("11.2.3.45") == 0
    assert service.first_rule_day("5.6.7.8") is None


# -- the views equal the frozen monitor loop ----------------------------------


def _rule_days_before_finalize(service) -> dict:
    total = service.runner.total_days
    return {key: day for key, day in service.rule_days.items()
            if day < total}


class TestMonitorReference:
    def test_rules_body_is_a_fresh_compile_every_day(self, ingested):
        assert ingested.resumed_at == total_study_days() // 2
        # every day, the restart, and finalize (with the last day)
        assert ingested.checks == total_study_days() + 1
        assert ingested.stale == []

    def test_alerts_equal_the_tick_loop(self, monitor, reference):
        _service, found = monitor
        assert len(found) == 79
        assert found == reference.alerts

    def test_rule_days_equal_the_tick_loop_across_a_restart(
            self, ingested, reference):
        service = ingested.service
        assert len(reference.rule_days) == 62
        assert _rule_days_before_finalize(service) == reference.rule_days
        # the finalize step dates only the rules the TI re-query added
        finalize_rules = {key for key, day in service.rule_days.items()
                          if day == service.runner.total_days}
        assert finalize_rules == {
            (r.technology, r.text)
            for r in compile_rules(reference.malnet.datasets).rules
        } - set(reference.rule_days)

    def test_heavy_fault_world(self):
        ingested = Ingested(FAULT_SEED, FAULT_SCALE, config=HEAVY)
        assert ingested.stale == []
        service = ingested.service
        reference = MonitorReference(FAULT_SEED, FAULT_SCALE, HEAVY)
        assert alerts(service.runner.datasets.profiles) == reference.alerts
        assert len(reference.alerts) == 78
        assert _rule_days_before_finalize(service) == reference.rule_days
        assert len(reference.rule_days) == 73

    def test_merged_two_worker_datasets(self, reference):
        world = generate_world(seed=SEED, scale=SCALE)
        _malnet, _campaign, datasets = run_study(world, workers=2)
        assert alerts(datasets.profiles) == reference.alerts


# -- the routes ---------------------------------------------------------------


class TestSinceViews:
    def test_alerts_since_filters_by_day(self, monitor):
        service, found = monitor
        for since in (0, found[len(found) // 2].day, 10**6):
            document = json.loads(_get(service, "/alerts", since=since))
            expected = [a for a in found if a.day >= since]
            assert document["total"] == len(expected)
            assert [(d["day"], d["kind"], d["subject"], d["detail"])
                    for d in document["alerts"]] == [
                (a.day, a.kind.value, a.subject, a.detail)
                for a in expected]
        assert alerts(service.runner.datasets.profiles, since=10**6) == []

    @pytest.mark.parametrize("path", ["/alerts", "/rules"])
    def test_bad_since_is_400(self, monitor, path):
        service, _found = monitor
        status, _ctype, _body, _headers = ServiceApi(service).handle(
            "GET", path, {"since": "yesterday"})
        assert status == 400
