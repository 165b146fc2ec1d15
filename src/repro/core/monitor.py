"""Continuous monitoring: MalNet as an always-on service (sections 1, 6a).

The paper's end state is not a one-off study but "a large-scale
continuous IoT malware monitoring infrastructure" whose outputs flow to
firewalls, ISPs and threat-intel exchanges — with *just-in-time* value:
two of the attack-issuing C2s were unknown to every TI feed on launch
day, so only someone listening live could have acted.

The study service is that infrastructure, and this module is its alert
feed (``GET /alerts?since=DAY``).  The alerts are a pure function of
the profiles, because a profile never changes after its study day.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..netsim.addresses import int_to_ip

__all__ = ["Alert", "AlertKind", "alerts"]


class AlertKind(enum.Enum):
    NEW_C2 = "new-c2"
    TI_BLIND_SPOT = "ti-blind-spot"      # C2 live but unknown to all feeds
    NEW_EXPLOIT = "new-exploit"          # first sighting of a vulnerability
    ATTACK_IN_PROGRESS = "attack"        # DDoS command eavesdropped live


@dataclass(frozen=True)
class Alert:
    """One actionable event of the alert feed."""

    kind: AlertKind
    day: int
    subject: str        # endpoint / vulnerability key / target
    detail: str

    def render(self) -> str:
        return f"[day {self.day:>3}] {self.kind.value:<14} {self.subject}: {self.detail}"


def alerts(profiles, since: int = 0) -> list[Alert]:
    """The alerts ``profiles`` raise, in emission order, from day ``since``.

    ``profiles`` must be in ``(day, sha256)`` order, as
    ``Datasets.profiles`` is in serial, resumed and merged runs alike.
    The first profile to show a C2, a vulnerability or a (C2, method,
    target) command raises its alert, so no alert's day depends on
    ``since``.
    """
    seen: set[tuple] = set()
    found: list[Alert] = []
    for profile in profiles:
        day, c2 = profile.day, profile.c2_endpoint
        if profile.has_c2 and ("c2", c2) not in seen:
            seen.add(("c2", c2))
            found.append(Alert(
                AlertKind.NEW_C2, day, c2,
                f"{profile.family_label or 'unknown'} C2 on port "
                f"{profile.c2_port}; live={profile.c2_live_on_day0}"))
            if profile.c2_live_on_day0 and not profile.vt_flagged_day0:
                found.append(Alert(
                    AlertKind.TI_BLIND_SPOT, day, c2,
                    "live C2 unknown to all 89 TI feeds — block it now"))
        for observation in profile.exploits:
            if ("vuln", observation.vuln_key) not in seen:
                seen.add(("vuln", observation.vuln_key))
                found.append(Alert(
                    AlertKind.NEW_EXPLOIT, day, observation.vuln_key,
                    f"first exploit sighting (loader {observation.loader}, "
                    f"port {observation.port})"))
        for attack in profile.attacks:
            command = attack.command
            key = ("attack", c2, command.method, command.target_ip,
                   command.target_port)
            if key not in seen:
                seen.add(key)
                found.append(Alert(
                    AlertKind.ATTACK_IN_PROGRESS, day,
                    int_to_ip(command.target_ip),
                    f"{command.attack_type} ordered by {c2} (duration "
                    f"{command.duration}s) — notify the victim's AS"))
    return [alert for alert in found if alert.day >= since]
