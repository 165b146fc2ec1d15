"""The five study datasets (paper Table 1) assembled by the pipeline.

:meth:`Datasets.merge` is the reduce side of the sharded study runner:
it combines per-shard outputs into exactly the structure the serial run
builds.  Every record carries an ``origin`` — the ``(day, sha256)`` of
the profile whose analysis created it — which is a total creation order
shared by all shards, so the merge can reproduce serial insertion order
and serial first-writer-wins field semantics without any coordination
between workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..botnet.protocols.base import AttackCommand
from .profiles import BinaryNetworkProfile


@dataclass
class C2Record:
    """One C2 address in D-C2s with its cross-validation state."""

    endpoint: str               # IP literal or domain
    port: int
    is_dns: bool
    family_labels: set[str] = field(default_factory=set)
    sample_hashes: set[str] = field(default_factory=set)
    first_day: int = 10**9      # study day first referred by a sample
    last_day: int = -1          # study day last referred by a sample
    first_seen: float = float("inf")   # publication time of first referral
    last_seen: float = float("-inf")   # publication time of last referral
    live_observations: int = 0  # times we found it live
    vt_malicious_day0: bool = False
    vt_malicious_recheck: bool = False
    protocol_verified: bool = False   # traffic matched a known C2 protocol
    issued_attack: bool = False
    #: (day, sha256) of the profile whose analysis created this record;
    #: fixes creation order and first-referral fields across shard merges
    origin: tuple = ()
    #: links records of one rotating-domain (DGA) C2 across its daily
    #: names — the schedule seed recovered from the campaign's binaries.
    #: compare=False keeps the plain-run golden digests byte-identical;
    #: with ``--dga`` off it is always "".
    churn_key: str = field(default="", compare=False)

    @property
    def observed_lifespan_days(self) -> int:
        """Paper metric: interval between last and first observation.

        Reported in whole days with a one-day floor ("80% of the binaries
        have an observed lifespan of one day", section 3.2).
        """
        import math

        if self.last_seen < self.first_seen:
            return 0
        return max(1, math.ceil((self.last_seen - self.first_seen) / 86400.0))

    @property
    def verified(self) -> bool:
        """Section 2.3: valid if VT (either query) or protocol match."""
        return (self.vt_malicious_day0 or self.vt_malicious_recheck
                or self.protocol_verified)

    @property
    def distinct_samples(self) -> int:
        return len(self.sample_hashes)


@dataclass
class ProbeObservation:
    """One probe of one discovered C2 in the D-PC2 campaign."""

    c2_address: int
    c2_port: int
    slot: int                 # probe index (6 per day)
    when: float
    engaged: bool
    family_profile: str = ""


@dataclass
class ExploitRecord:
    """One (sample, vulnerability) pair in D-Exploits."""

    sha256: str
    vuln_key: str
    loader: str | None
    downloader: str | None
    day: int


@dataclass
class DdosRecord:
    """One observed DDoS command in D-DDOS."""

    c2_endpoint: str
    family: str
    command: AttackCommand
    when: float
    sample_hashes: set[str] = field(default_factory=set)
    verified: bool = False
    via_heuristic: bool = False
    #: (day, sha256, seq) of the creating profile's session; ``seq``
    #: orders records created within one observation session
    origin: tuple = ()

    @property
    def attack_type(self) -> str:
        return self.command.attack_type

    @property
    def target_protocol(self) -> str:
        """Target protocol class for Figure 10 (UDP/TCP/DNS/ICMP)."""
        method = self.command.method
        if method == "blacknurse":
            return "ICMP"
        if method in ("syn", "hydrasyn", "stomp"):
            return "TCP"
        if method == "tls" and self.family == "mirai":
            return "TCP"
        if self.command.target_port == 53:
            return "DNS"
        return "UDP"


@dataclass
class Datasets:
    """All study datasets plus the per-binary profiles."""

    profiles: list[BinaryNetworkProfile] = field(default_factory=list)
    d_c2s: dict[str, C2Record] = field(default_factory=dict)
    d_pc2: list[ProbeObservation] = field(default_factory=list)
    d_exploits: list[ExploitRecord] = field(default_factory=list)
    d_ddos: list[DdosRecord] = field(default_factory=list)
    #: (endpoint, command) -> record, so ddos_record dedup is O(1)
    _ddos_index: dict = field(default_factory=dict, compare=False, repr=False)
    #: sha256 -> profile, so per-binary lookup is O(1) (see
    #: :meth:`profile_by_sha256`); rebuilt lazily after merges/appends
    _profile_index: dict = field(default_factory=dict, compare=False,
                                 repr=False)
    #: shard indexes missing from a parallel merge (see ShardedStudyRunner);
    #: non-empty means *partial* data — excluded from equality on purpose,
    #: it describes how the value was produced, not the value itself
    failed_shards: list = field(default_factory=list, compare=False)

    def __eq__(self, other: object) -> bool:
        """Equal exactly when :func:`~repro.core.cache.dataset_diff`
        finds no difference, so record order counts: field-wise equality
        would ignore the insertion order of ``d_c2s``, which the digest
        hashes."""
        if not isinstance(other, Datasets):
            return NotImplemented
        from .cache import dataset_diff     # core.cache imports this module

        return dataset_diff(self, other) is None

    # -- D-Samples ---------------------------------------------------------

    def profile_by_sha256(self, sha256: str) -> BinaryNetworkProfile | None:
        """O(1) profile lookup by binary hash.

        The study deduplicates by sha256 (one profile per hash), so the
        index is a plain dict; like ``_ddos_index`` it is rebuilt lazily
        whenever its size disagrees with the profile list (appends,
        merges, cache restores).
        """
        index = self._profile_index
        if len(index) != len(self.profiles):
            index = self._profile_index = {
                p.sha256: p for p in self.profiles
            }
        return index.get(sha256)

    # -- assembly helpers used by the pipeline ------------------------------

    def c2_record(self, endpoint: str, port: int, is_dns: bool,
                  origin: tuple = ()) -> C2Record:
        record = self.d_c2s.get(endpoint)
        if record is None:
            record = C2Record(endpoint=endpoint, port=port, is_dns=is_dns,
                              origin=origin)
            self.d_c2s[endpoint] = record
        return record

    def ddos_record(
        self, c2_endpoint: str, family: str, command: AttackCommand,
        when: float, origin: tuple = (),
    ) -> DdosRecord:
        """Commands are deduplicated per (C2, command payload)."""
        key = (c2_endpoint, command)
        index = self._ddos_index
        if len(index) != len(self.d_ddos):   # rebuilt after merge/mutation
            index = self._ddos_index = {
                (r.c2_endpoint, r.command): r for r in self.d_ddos
            }
        record = index.get(key)
        if record is not None:
            return record
        record = DdosRecord(c2_endpoint=c2_endpoint, family=family,
                            command=command, when=when, origin=origin)
        self.d_ddos.append(record)
        index[key] = record
        return record

    # -- Table 1 --------------------------------------------------------------

    def exploit_sample_count(self) -> int:
        """Samples from which at least one exploit was extracted."""
        return len({record.sha256 for record in self.d_exploits})

    def probed_c2_count(self) -> int:
        return len({(o.c2_address, o.c2_port) for o in self.d_pc2})

    def summary(self) -> dict[str, int]:
        """The dataset-size rows of Table 1."""
        return {
            "D-Samples": len(self.profiles),
            "D-C2s": len(self.d_c2s),
            "D-PC2": len(self.d_pc2),
            "D-Exploits": self.exploit_sample_count(),
            "D-DDOS": len(self.d_ddos),
        }

    # -- sharded merge --------------------------------------------------------

    @classmethod
    def merge(cls, shards: Iterable["Datasets"]) -> "Datasets":
        """Deterministically combine shard outputs into the serial result.

        Invariant (property-tested): for shards produced by partitioning
        the collected samples by sha256, the merged value equals the
        ``Datasets`` a serial run builds — same profile order, same dict
        insertion order, same first-writer field values.  The origin
        tuples carried by C2/DDoS records are the global creation order;
        everything else is min/max, set union, or canonical sorting.
        """
        shards = list(shards)
        merged = cls()

        # D-Samples: the serial day loop emits profiles day-major and, within
        # a day, in the sha256 order of the sorted collection pull.
        merged.profiles = sorted(
            (p for shard in shards for p in shard.profiles),
            key=lambda p: (p.day, p.sha256),
        )

        # D-C2s: group by endpoint; the globally-earliest creator supplies
        # the creation-time fields (port, is_dns), everything cumulative is
        # folded in; insertion order is creation order, as in the serial run.
        by_endpoint: dict[str, list[C2Record]] = {}
        for shard in shards:
            for record in shard.d_c2s.values():
                by_endpoint.setdefault(record.endpoint, []).append(record)
        c2_merged: list[C2Record] = []
        for records in by_endpoint.values():
            records.sort(key=lambda r: r.origin)
            base = records[0]
            out = C2Record(
                endpoint=base.endpoint, port=base.port, is_dns=base.is_dns,
                origin=base.origin, churn_key=base.churn_key,
            )
            for record in records:
                out.family_labels |= record.family_labels
                out.sample_hashes |= record.sample_hashes
                out.first_day = min(out.first_day, record.first_day)
                out.last_day = max(out.last_day, record.last_day)
                out.first_seen = min(out.first_seen, record.first_seen)
                out.last_seen = max(out.last_seen, record.last_seen)
                out.live_observations += record.live_observations
                out.vt_malicious_day0 |= record.vt_malicious_day0
                out.vt_malicious_recheck |= record.vt_malicious_recheck
                out.protocol_verified |= record.protocol_verified
                out.issued_attack |= record.issued_attack
            c2_merged.append(out)
        c2_merged.sort(key=lambda r: (r.origin, r.endpoint))
        merged.d_c2s = {record.endpoint: record for record in c2_merged}

        # D-PC2: slot-major, (address, port) within a slot — the order the
        # probing campaign itself appends in.
        merged.d_pc2 = sorted(
            (o for shard in shards for o in shard.d_pc2),
            key=lambda o: (o.slot, o.c2_address, o.c2_port),
        )

        # D-Exploits: profile creation order; the sort is stable, so the
        # within-profile capture order of each shard is preserved.
        merged.d_exploits = sorted(
            (r for shard in shards for r in shard.d_exploits),
            key=lambda r: (r.day, r.sha256),
        )

        # D-DDOS: dedup per (C2, command) across shards; the earliest
        # creator wins the creation-time fields (when, family), flags OR,
        # hash sets union — exactly ddos_record()'s serial semantics.
        by_command: dict[tuple, list[DdosRecord]] = {}
        for shard in shards:
            for record in shard.d_ddos:
                key = (record.c2_endpoint, record.command)
                by_command.setdefault(key, []).append(record)
        ddos_merged: list[DdosRecord] = []
        for records in by_command.values():
            records.sort(key=lambda r: r.origin)
            base = records[0]
            out = DdosRecord(
                c2_endpoint=base.c2_endpoint, family=base.family,
                command=base.command, when=base.when, origin=base.origin,
            )
            for record in records:
                out.sample_hashes |= record.sample_hashes
                out.verified |= record.verified
                out.via_heuristic |= record.via_heuristic
            ddos_merged.append(out)
        ddos_merged.sort(key=lambda r: r.origin)
        merged.d_ddos = ddos_merged
        return merged
