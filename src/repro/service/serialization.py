"""Dataclass -> JSON documents for the query API.

The in-memory artifacts (profiles, C2 records, CDFs, Table rows) are
dataclasses full of sets, bytes, and nested objects; the API speaks
plain JSON.  These builders are the only place that translation lives —
handlers compose them, tests assert against them.  Every document is
built from primitives only (str/int/float/bool/list/dict), so
``json.dumps`` never needs a custom encoder.

A response body is one JSON line from the stdlib's C encoder, with the
default ``", "``/``": "`` separators, so ``"resumed": true`` appears
verbatim in ``/status``.  Any ``indent`` makes the json module fall
back to its pure-Python encoder, about four times slower on a ``/c2``
document; ``repro query`` pretty-prints what it receives, and
``python -m json.tool`` does the same for ``curl``.
"""

from __future__ import annotations

import json

from ..analysis.stats import CdfPoint
from ..core.datasets import C2Record, DdosRecord
from ..core.profiles import BinaryNetworkProfile
from ..netsim.addresses import int_to_ip

__all__ = [
    "alert_doc",
    "attack_doc",
    "c2_doc",
    "cdf_doc",
    "ddos_doc",
    "encode",
    "exploit_usage_doc",
    "profile_doc",
]


def encode(document) -> bytes:
    """UTF-8 JSON bytes for a response body: one line, newline-ended."""
    return (json.dumps(document) + "\n").encode()


def alert_doc(alert) -> dict:
    """One :class:`~repro.core.monitor.Alert` of the monitoring feed."""
    return {
        "day": alert.day,
        "kind": alert.kind.value,
        "subject": alert.subject,
        "detail": alert.detail,
    }


def attack_doc(observation) -> dict:
    """One :class:`~repro.core.profiles.AttackObservation`."""
    command = observation.command
    return {
        "method": command.method,
        "target_ip": int_to_ip(command.target_ip),
        "target_port": command.target_port,
        "duration_seconds": command.duration,
        "family_profile": observation.family_profile,
        "when": observation.when,
        "verified": observation.verified,
        "via_heuristic": observation.via_heuristic,
    }


def profile_doc(profile: BinaryNetworkProfile) -> dict:
    """Full per-binary profile — the paper's central artifact, as JSON."""
    return {
        "sha256": profile.sha256,
        "published": profile.published,
        "day": profile.day,
        "source": profile.source,
        "family_label": profile.family_label,
        "label_source": profile.label_source,
        "activated": profile.activated,
        "is_p2p": profile.is_p2p,
        "c2": None if not profile.has_c2 else {
            "endpoint": profile.c2_endpoint,
            "port": profile.c2_port,
            "is_dns": profile.c2_is_dns,
            "live_on_day0": profile.c2_live_on_day0,
            "vt_flagged_day0": profile.vt_flagged_day0,
        },
        "exploits": [
            {
                "vuln_key": e.vuln_key,
                "loader": e.loader,
                "downloader": e.downloader,
                "port": e.port,
                "payload_hex": e.payload.hex(),
            }
            for e in profile.exploits
        ],
        "scan_ports": list(profile.scan_ports),
        "attacks": [attack_doc(a) for a in profile.attacks],
        "quarantined": profile.quarantined,
        "quarantine_reason": profile.quarantine_reason,
    }


def c2_doc(record: C2Record) -> dict:
    """One D-C2s record with its cross-validation state."""
    return {
        "endpoint": record.endpoint,
        "port": record.port,
        "is_dns": record.is_dns,
        "family_labels": sorted(record.family_labels),
        "distinct_samples": record.distinct_samples,
        "first_day": record.first_day,
        "last_day": record.last_day,
        "live_observations": record.live_observations,
        "verified": record.verified,
        "vt_malicious_day0": record.vt_malicious_day0,
        "vt_malicious_recheck": record.vt_malicious_recheck,
        "protocol_verified": record.protocol_verified,
        "issued_attack": record.issued_attack,
        "observed_lifespan_days": record.observed_lifespan_days,
    }


def ddos_doc(record: DdosRecord) -> dict:
    """One D-DDOS record."""
    command = record.command
    return {
        "c2_endpoint": record.c2_endpoint,
        "family": record.family,
        "method": command.method,
        "target_ip": int_to_ip(command.target_ip),
        "target_port": command.target_port,
        "duration_seconds": command.duration,
        "target_protocol": record.target_protocol,
        "when": record.when,
        "distinct_samples": len(record.sample_hashes),
        "verified": record.verified,
        "via_heuristic": record.via_heuristic,
    }


def cdf_doc(points: list[CdfPoint]) -> list[dict]:
    """An empirical CDF as ``[{"value": ..., "fraction": ...}, ...]``."""
    return [{"value": p.value, "fraction": p.fraction} for p in points]


def exploit_usage_doc(usage) -> dict:
    """One measured Table 4 row (:class:`VulnUsage`)."""
    vuln = usage.vulnerability
    return {
        "vuln_key": vuln.key,
        "vuln_id": vuln.vuln_id,
        "cve": vuln.cve,
        "exploit_id": vuln.exploit_id,
        "published": vuln.published,
        "target_device": vuln.target_device,
        "port": vuln.port,
        "sample_count": usage.sample_count,
        "age_years_at_study": usage.age_years_at_study,
    }
