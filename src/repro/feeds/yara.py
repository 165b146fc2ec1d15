"""A miniature YARA-like rule engine.

VirusTotal attaches crowd-sourced YARA matches to sample reports, and
MalNet uses them (together with AVClass2) for family labeling (section
2.2).  Rules here support the subset those IoT rules actually use: named
byte/string patterns with ``any``/``all``/``N of them`` conditions.
"""

from __future__ import annotations

from dataclasses import dataclass


class RuleError(ValueError):
    """Raised for malformed rules or conditions."""


@dataclass(frozen=True)
class YaraRule:
    """One detection rule."""

    name: str
    strings: tuple[bytes, ...]
    #: "any" | "all" | integer threshold (at least N patterns present)
    condition: str | int = "any"
    #: metadata tag, e.g. the malware family the rule identifies
    family: str = ""

    def __post_init__(self) -> None:
        if not self.strings:
            raise RuleError(f"rule {self.name} has no strings")
        if isinstance(self.condition, int):
            if not 1 <= self.condition <= len(self.strings):
                raise RuleError(f"rule {self.name}: bad threshold")
        elif self.condition not in ("any", "all"):
            raise RuleError(f"rule {self.name}: bad condition {self.condition!r}")

    def matches(self, data: bytes) -> bool:
        hits = sum(1 for pattern in self.strings if pattern in data)
        if self.condition == "any":
            return hits >= 1
        if self.condition == "all":
            return hits == len(self.strings)
        return hits >= int(self.condition)


def families_of(matches: list[YaraRule]) -> list[str]:
    """Family tags of a scan's matching rules, deduplicated in match order."""
    return list(dict.fromkeys(rule.family for rule in matches if rule.family))


class RuleSet:
    """An ordered collection of rules evaluated against a binary."""

    def __init__(self, rules: list[YaraRule] | None = None):
        self.rules: list[YaraRule] = list(rules or [])

    def add(self, rule: YaraRule) -> None:
        if any(existing.name == rule.name for existing in self.rules):
            raise RuleError(f"duplicate rule name {rule.name!r}")
        self.rules.append(rule)

    def scan(self, data: bytes) -> list[YaraRule]:
        """All rules matching ``data``."""
        return [rule for rule in self.rules if rule.matches(data)]

    def families(self, data: bytes) -> list[str]:
        """Family tags of matching rules, deduplicated in match order."""
        return families_of(self.scan(data))

    def __len__(self) -> int:
        return len(self.rules)


def community_iot_rules() -> RuleSet:
    """The crowd-sourced rules for the study's seven families.

    Patterns key on the same artifacts real community rules use (family
    markers, protocol strings); they match the synthetic builder's
    ``.rodata`` output.
    """
    rules = RuleSet()
    rules.add(YaraRule("Linux_Mirai_Botnet", (b"/bin/busybox MIRAI",),
                       family="mirai"))
    rules.add(YaraRule("Linux_Gafgyt_Generic",
                       (b"gafgyt", b"PONG!\x00BOGOMIPS"), condition="any",
                       family="gafgyt"))
    rules.add(YaraRule("Linux_Tsunami_IRCBot",
                       (b"NICK %s", b"tsunami"), condition="any",
                       family="tsunami"))
    rules.add(YaraRule("IoT_Daddyl33t",
                       (b"daddyl33t", b"HYDRASYN"), condition="any",
                       family="daddyl33t"))
    rules.add(YaraRule("Linux_Mozi_P2P",
                       (b"Mozi.m", b"dht.transmissionbt.com"), condition="any",
                       family="mozi"))
    rules.add(YaraRule("Linux_Hajime", (b"hajime", b"atk."), condition=2,
                       family="hajime"))
    rules.add(YaraRule("APT_VPNFilter", (b"vpnfilter",), family="vpnfilter"))
    return rules
