"""Turning profiles into firewall and IDS rules (the paper's impact goal).

Section 1 frames MalNet's output as actionable defense: "(a) secure the
network, through firewall rules, (b) harden the security of the device,
and (c) provide intelligence of attacks as they launch", and section 6
lists "profile the collected information into easy to use rules for
different firewall technologies" as the deployment step.  This module is
that step: it compiles a :class:`~repro.core.datasets.Datasets` into

* **iptables** drop rules for every verified C2 address and downloader;
* **dnsmasq**-style blackhole entries for DNS-named C2s;
* **Snort** signatures for each exploited vulnerability (keyed on the
  exploit's unique URI/marker) and for the fingerprintable DDoS payloads
  (VSE probe, NFO marker).

Rules carry provenance comments (which dataset row produced them) so a
network operator can audit each entry back to a binary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..botnet.ddos import NFO_PAYLOAD, VSE_PROBE
from ..botnet.exploits import BY_KEY
from .datasets import Datasets

_SID_BASE = 7_100_000


@dataclass(frozen=True)
class FirewallRule:
    """One generated rule with provenance."""

    technology: str   # "iptables" | "dnsmasq" | "snort"
    text: str
    reason: str
    #: the blocked host/domain this rule targets, "" for payload
    #: signatures.  Metadata, not rendered: matching on it instead of
    #: substring-searching ``text`` keeps "1.2.3.4" from matching a rule
    #: for "11.2.3.45".
    endpoint: str = ""

    def render(self) -> str:
        return f"{self.text}  # {self.reason}"


@dataclass
class RuleBundle:
    """All rules compiled from one dataset snapshot."""

    rules: list[FirewallRule] = field(default_factory=list)
    #: membership index beside ``rules``: a list scan made compiling
    #: quadratic in the rule count
    _seen: set[FirewallRule] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._seen = set(self.rules)

    def add(self, rule: FirewallRule) -> None:
        if rule not in self._seen:
            self._seen.add(rule)
            self.rules.append(rule)

    def by_technology(self, technology: str) -> list[FirewallRule]:
        return [r for r in self.rules if r.technology == technology]

    def render(self, technology: str | None = None) -> str:
        chosen = (self.rules if technology is None
                  else self.by_technology(technology))
        return "\n".join(rule.render() for rule in chosen)

    def __len__(self) -> int:
        return len(self.rules)


def _c2_rules(datasets: Datasets, bundle: RuleBundle,
              include_unverified: bool) -> None:
    for record in sorted(datasets.d_c2s.values(), key=lambda r: r.endpoint):
        if not (record.verified or include_unverified):
            continue
        families = ",".join(sorted(record.family_labels)) or "unknown"
        reason = (f"C2 of {record.distinct_samples} binaries "
                  f"({families}); first seen day {record.first_day}")
        if record.is_dns:
            bundle.add(FirewallRule(
                "dnsmasq", f"address=/{record.endpoint}/0.0.0.0", reason,
                endpoint=record.endpoint))
        else:
            bundle.add(FirewallRule(
                "iptables",
                f"-A OUTPUT -d {record.endpoint} -j DROP", reason,
                endpoint=record.endpoint))
            bundle.add(FirewallRule(
                "iptables",
                f"-A INPUT -s {record.endpoint} -j DROP", reason,
                endpoint=record.endpoint))


def _downloader_rules(datasets: Datasets, bundle: RuleBundle) -> None:
    seen: set[str] = set()
    for record in datasets.d_exploits:
        if not record.downloader:
            continue
        host = record.downloader.partition(":")[0]
        if host in seen or host in datasets.d_c2s:
            continue  # C2-colocated downloaders already covered above
        seen.add(host)
        bundle.add(FirewallRule(
            "iptables", f"-A OUTPUT -d {host} -j DROP",
            f"malware downloader referenced by exploit "
            f"({record.vuln_key}, loader {record.loader})",
            endpoint=host,
        ))


def _exploit_signatures(datasets: Datasets, bundle: RuleBundle) -> None:
    sid = _SID_BASE
    seen: set[str] = set()
    for record in datasets.d_exploits:
        if record.vuln_key in seen:
            continue
        seen.add(record.vuln_key)
        vuln = BY_KEY[record.vuln_key]
        marker = vuln.marker.replace('"', '\\"')
        sid += 1
        bundle.add(FirewallRule(
            "snort",
            (f'alert tcp any any -> any {vuln.port} '
             f'(msg:"IoT exploit {vuln.key} ({vuln.target_device})"; '
             f'content:"{marker}"; sid:{sid}; rev:1;)'),
            f"exploited by {_samples_for(datasets, record.vuln_key)} binaries",
        ))


def _samples_for(datasets: Datasets, vuln_key: str) -> int:
    return len({r.sha256 for r in datasets.d_exploits if r.vuln_key == vuln_key})


def _ddos_signatures(datasets: Datasets, bundle: RuleBundle) -> None:
    observed_types = {record.attack_type for record in datasets.d_ddos}
    if "VSE" in observed_types:
        probe = VSE_PROBE[4:24].decode("ascii")
        bundle.add(FirewallRule(
            "snort",
            (f'alert udp any any -> any any (msg:"VSE amplification probe"; '
             f'content:"{probe}"; threshold:type both,track by_src,'
             f'count 100,seconds 1; sid:{_SID_BASE + 900}; rev:1;)'),
            "VSE DDoS observed from live C2 commands",
        ))
    if "NFO" in observed_types:
        bundle.add(FirewallRule(
            "snort",
            (f'alert udp any any -> any 238 (msg:"NFO custom flood"; '
             f'content:"{NFO_PAYLOAD[:5].decode()}"; '
             f'sid:{_SID_BASE + 901}; rev:1;)'),
            "NFO DDoS observed from live C2 commands",
        ))
    if "BLACKNURSE" in observed_types:
        bundle.add(FirewallRule(
            "snort",
            (f'alert icmp any any -> any any (msg:"BLACKNURSE flood"; '
             f'itype:3; icode:3; threshold:type both,track by_src,'
             f'count 100,seconds 1; sid:{_SID_BASE + 902}; rev:1;)'),
            "BLACKNURSE DDoS observed from live C2 commands",
        ))


def compile_rules(datasets: Datasets, include_unverified: bool = False) -> RuleBundle:
    """Compile the full rule bundle from a study's datasets."""
    bundle = RuleBundle()
    _c2_rules(datasets, bundle, include_unverified)
    _downloader_rules(datasets, bundle)
    _exploit_signatures(datasets, bundle)
    _ddos_signatures(datasets, bundle)
    return bundle


def coverage_report(datasets: Datasets, bundle: RuleBundle) -> dict[str, float]:
    """How much of the observed badness the bundle addresses.

    * ``c2_coverage`` — fraction of verified C2s with a block rule;
    * ``binary_coverage`` — fraction of C2-bearing binaries whose C2 is
      blocked (the §3.3 argument: one binary's C2 protects against all
      binaries sharing it).
    """
    blocked_hosts = {rule.endpoint for rule in bundle.rules if rule.endpoint}
    verified = [r for r in datasets.d_c2s.values() if r.verified]
    c2_cov = (sum(1 for r in verified if r.endpoint in blocked_hosts)
              / len(verified)) if verified else 0.0
    covered_binaries: set[str] = set()
    total_binaries: set[str] = set()
    for record in datasets.d_c2s.values():
        total_binaries |= record.sample_hashes
        if record.endpoint in blocked_hosts:
            covered_binaries |= record.sample_hashes
    binary_cov = (len(covered_binaries) / len(total_binaries)
                  if total_binaries else 0.0)
    return {"c2_coverage": c2_cov, "binary_coverage": binary_cov}
