"""A VirusTotal-like service: file scans, sample feed, and TI IoC reports.

Three of the paper's inputs live here:

* **AV verdicts** — 75 engines scan each submitted sample; MalNet keeps a
  binary only when >= 5 engines call it malicious (section 2.2).  Engine
  labels are generated from the sample's ground-truth family with the
  real-world quirk that most engines label Mozi as ``Linux.Mirai`` (Mozi
  reuses Mirai code), which is what makes AVClass2 mislabel it.
* **The daily feed** — samples become visible with a submission-to-feed
  latency of up to 24 hours (Ugarte-Pedrero et al., cited in section 2.2),
  which is one reason 60% of C2s are already dead on collection day.
* **TI IoC reports** — ``ip_report``/``domain_report`` aggregate the 89
  vendor feeds of :mod:`repro.intel.vendors` at a query time; this is what
  the Table 3 miss-rate measurement queries twice.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property

from ..binary.builder import MalwareSample
from ..intel.vendors import IocIntel, VendorDirectory
from .pull import pull_window as _pull
from .yara import RuleSet, community_iot_rules, families_of

ENGINE_COUNT = 75
DETECTION_THRESHOLD = 5  # established best practice (section 2.2)

#: The engines, in the order a report lists them.
_ENGINE_NAMES = tuple(f"Engine{i:02d}" for i in range(ENGINE_COUNT))

#: ``(engine, f"{engine}|".encode())`` per engine: an engine's verdict on
#: a sample hashes its prefix plus the sample's sha256, the bytes
#: ``f"{engine}|{sha256}".encode()`` give
_VERDICT_KEYS = tuple((engine, f"{engine}|".encode())
                      for engine in _ENGINE_NAMES)

#: How engines name each ground-truth family.  Weights sum to 1; the Mozi
#: row is the documented failure: engines overwhelmingly say "mirai".
_LABEL_POOLS: dict[str, tuple[tuple[str, float], ...]] = {
    "mirai": (("Linux.Mirai.{v}!tr", 0.8), ("ELF:Mirai-{v} [Trj]", 0.15),
              ("Trojan.Linux.Generic", 0.05)),
    "gafgyt": (("Linux.Gafgyt.{v}", 0.6), ("ELF.Bashlite.{v}", 0.25),
               ("DDoS:Linux/Qbot.{v}", 0.1), ("Trojan.Linux.Generic", 0.05)),
    "tsunami": (("Linux.Tsunami.{v}", 0.6), ("Backdoor.Kaiten.{v}", 0.3),
                ("Trojan.Linux.Generic", 0.1)),
    "daddyl33t": (("Linux.Daddyl33t.{v}", 0.55), ("ELF.Daddyl33t-{v}", 0.35),
                  ("Trojan.Linux.Generic", 0.1)),
    "mozi": (("Linux.Mirai.{v}!tr", 0.75), ("ELF:Mirai-{v} [Trj]", 0.15),
             ("Linux.Mozi.{v}", 0.05), ("Trojan.Linux.Generic", 0.05)),
    "hajime": (("Linux.Hajime.{v}", 0.7), ("Trojan.Linux.Generic", 0.3)),
    "vpnfilter": (("Linux.VPNFilter.{v}", 0.8), ("Trojan.Linux.Generic", 0.2)),
}


def _engine_label(engine: str, family: str, sha256: str) -> str:
    """The label ``engine`` gives a sample of ``family``, deterministic
    per (engine, sample)."""
    pool = _LABEL_POOLS[family]
    digest = hashlib.sha256(f"label|{engine}|{sha256}".encode()).digest()
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


@dataclass
class ScanReport:
    """What a VT file scan returns.

    ``positives`` counts the engines that flag the sample.  Their labels
    (``detections``, ``engine_labels``) are built on first read: the
    pipeline reads them only for a verified sample that no YARA rule
    tags, which AVClass2 then labels.
    """

    sha256: str
    family: str                     # ground truth, which labels derive from
    engines: tuple[str, ...]        # the detecting engines, in engine order
    yara_matches: list[str]         # matching community rule names
    yara_families: list[str]        # family tags of those rules
    first_submission: float

    @property
    def positives(self) -> int:
        return len(self.engines)

    @cached_property
    def detections(self) -> dict[str, str]:
        """engine -> label, only for the detecting engines."""
        return {engine: _engine_label(engine, self.family, self.sha256)
                for engine in self.engines}

    @property
    def engine_labels(self) -> list[str]:
        return list(self.detections.values())


@dataclass
class FeedEntry:
    """One sample as it appears in the public feed."""

    sample: MalwareSample
    submitted: float
    published: float  # submitted + feed latency


class VirusTotalService:
    """Deterministic VT stand-in: scans, feed, and vendor-backed TI."""

    feed_name = "virustotal"

    def __init__(self, rules: RuleSet | None = None):
        self.rules = rules or community_iot_rules()
        self.vendors = VendorDirectory()
        self._feed: list[FeedEntry] = []
        self._by_hash: dict[str, FeedEntry] = {}
        self._intel: dict[str, IocIntel] = {}

    # -- file scanning ----------------------------------------------------------

    def scan(self, sample: MalwareSample, now: float) -> ScanReport:
        """Scan a sample: engine verdicts plus community YARA matches.

        Real malware is flagged by ~85% of engines; benign or corrupt
        uploads ("chaff") only draw rare false positives (~2%), so they
        never clear the 5-engine corroboration bar.
        """
        bar = 5 if sample.variant == "chaff" else 218  # of 256: ~2% / ~0.85
        sha256 = hashlib.sha256
        sha = sample.sha256.encode()
        engines = tuple([engine for engine, prefix in _VERDICT_KEYS
                         if sha256(prefix + sha).digest()[0] < bar])
        matches = self.rules.scan(sample.data)
        entry = self._by_hash.get(sample.sha256)
        first = entry.submitted if entry else now
        return ScanReport(
            sha256=sample.sha256,
            family=sample.family,
            engines=engines,
            yara_matches=[rule.name for rule in matches],
            yara_families=families_of(matches),
            first_submission=first,
        )

    # -- sample feed ---------------------------------------------------------------

    def submit_sample(self, sample: MalwareSample, when: float,
                      rng: random.Random) -> FeedEntry:
        """Someone uploads a sample; it reaches the feed with a latency
        drawn from ``rng`` (a re-upload draws nothing)."""
        if sample.sha256 in self._by_hash:
            return self._by_hash[sample.sha256]
        latency = rng.uniform(0.0, 24 * 3600.0)  # up to 24h (§2.2)
        entry = FeedEntry(sample=sample, submitted=when, published=when + latency)
        self._feed.append(entry)
        self._by_hash[sample.sha256] = entry
        return entry

    def feed_between(self, start: float, end: float, attempt: int = 0,
                     faults=None) -> list[FeedEntry]:
        """Feed entries published in [start, end) — the daily pull.

        With the run's fault injector as ``faults``, a pull attempt may
        raise :class:`~repro.netsim.faults.FeedUnavailable` (outage
        window) and entries on latency-spike days become visible only
        once their delayed publication instant falls inside the pull
        window.
        """
        return _pull(self, start, end, attempt, faults)

    def lookup_hash(self, sha256: str) -> FeedEntry | None:
        return self._by_hash.get(sha256)

    # -- threat intel ------------------------------------------------------------------

    def register_ioc(self, intel: IocIntel) -> None:
        """World-side: make an endpoint knowable to the vendor feeds."""
        self._intel[intel.ioc] = intel

    def get_intel(self, ioc: str) -> IocIntel | None:
        """The intel record for an IoC, if any vendor could ever know it."""
        return self._intel.get(ioc)

    def ioc_report(self, ioc: str, query_time: float) -> list[str]:
        """Vendor names flagging ``ioc`` as malicious at ``query_time``."""
        intel = self._intel.get(ioc)
        if intel is None:
            return []
        return self.vendors.flags_at(intel, query_time)

    def is_malicious(self, ioc: str, query_time: float) -> bool:
        # liveness checks only need "does anyone flag it" — answered from
        # the directory's earliest-detection memo without building the
        # per-vendor name list ioc_report would return
        intel = self._intel.get(ioc)
        if intel is None:
            return False
        return self.vendors.flags_any_at(intel, query_time)

    def eventual_vendor_count(self, ioc: str) -> int:
        intel = self._intel.get(ioc)
        if intel is None:
            return 0
        return len(self.vendors.eventual_flaggers(intel))
