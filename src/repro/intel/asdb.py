"""Autonomous-system database for the virtual Internet.

Seeds the ten C2-heavy ASes of paper Table 2 (with their real ASNs,
countries, hosting/anti-DDoS/crypto attributes), the large cloud ASes from
Appendix A (Google, Amazon, Alibaba), victim-side ASes for the DDoS
analysis (ISPs, hosting providers, gaming-specialized networks, Roblox),
and a synthetic tail so that the full D-C2s dataset spans ~128 ASes
(Appendix A / Figure 13).

Every AS owns one or more /16 prefixes carved from documentation-free
public space, so :meth:`AsDatabase.lookup` can map any simulated address
back to its AS — the join behind Figures 1, 12, 13 and Table 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.addresses import AddressAllocator, Subnet


@dataclass(frozen=True)
class AsRecord:
    """One autonomous system."""

    asn: int
    name: str
    country: str
    #: coarse type used by the victim analysis (Figure 12)
    kind: str  # "hosting" | "isp" | "business"
    is_hosting: bool = False
    anti_ddos: bool | None = None
    accepts_crypto: bool = False
    #: industry specialization (e.g. "gaming") — 18% of victim ASes (§5.3)
    specialization: str = ""
    website_info: bool = True


#: Table 2 verbatim: the ten ASes hosting 69.7% of observed C2s.
TOP_C2_ASES: tuple[AsRecord, ...] = (
    AsRecord(36352, "ColoCrossing", "US", "hosting", True, True),
    AsRecord(211252, "Delis LLC", "US", "hosting", True, None,
             website_info=False),
    AsRecord(14061, "DigitalOcean", "US", "hosting", True, True),
    AsRecord(53667, "FranTech Solutions", "LU", "hosting", True, True,
             accepts_crypto=True),
    AsRecord(202306, "HOSTGLOBAL", "RU", "hosting", True, True,
             accepts_crypto=True),
    AsRecord(399471, "Serverion LLC", "NL", "hosting", True, True),
    AsRecord(16276, "OVH SAS", "FR", "hosting", True, True),
    AsRecord(44812, "IP SERVER LLC", "RU", "hosting", True, True,
             accepts_crypto=True),
    AsRecord(139884, "Apeiron Global Pvt Ltd", "IN", "hosting", True, False),
    AsRecord(50673, "Serverius", "NL", "hosting", True, True),
)

#: Large clouds that also appear in the C2 tail (Appendix A).
CLOUD_ASES: tuple[AsRecord, ...] = (
    AsRecord(15169, "Google LLC", "US", "business", specialization="cloud"),
    AsRecord(16509, "Amazon.com Inc", "US", "business", specialization="cloud"),
    AsRecord(37963, "Hangzhou Alibaba Advertising Co.Ltd", "CN", "business",
             specialization="cloud"),
)

#: Victim-side ASes for the DDoS target analysis (§5.3, Figure 12).
VICTIM_ASES: tuple[AsRecord, ...] = (
    AsRecord(22697, "Roblox", "US", "business", specialization="gaming"),
    AsRecord(32590, "Valve Corporation", "US", "business",
             specialization="gaming"),
    AsRecord(14586, "NFOservers", "US", "hosting", True, True,
             specialization="gaming"),
    AsRecord(9009, "M247 Europe", "RO", "hosting", True, True),
    AsRecord(24961, "myLoc managed IT", "DE", "hosting", True, True,
             specialization="gaming"),
    AsRecord(7018, "AT&T", "US", "isp"),
    AsRecord(3320, "Deutsche Telekom", "DE", "isp"),
    AsRecord(12322, "Free SAS", "FR", "isp"),
    AsRecord(4134, "Chinanet", "CN", "isp"),
    AsRecord(8452, "TE Data", "EG", "isp"),
    AsRecord(45899, "VNPT Corp", "VN", "isp"),
    AsRecord(9121, "Turk Telekom", "TR", "isp"),
    AsRecord(28573, "Claro NXT", "BR", "isp"),
    AsRecord(6830, "Liberty Global", "NL", "isp"),
    AsRecord(16397, "EQUINIX Brasil", "BR", "hosting", True, None),
    AsRecord(60781, "LeaseWeb Netherlands", "NL", "hosting", True, True),
    AsRecord(51167, "Contabo", "DE", "hosting", True, True),
    AsRecord(212317, "Czech hosting s.r.o.", "CZ", "hosting", True, None),
    AsRecord(29119, "ServiHosting", "ES", "hosting", True, None),
    AsRecord(135905, "VNPT-AS-VN", "VN", "isp"),
)

_TAIL_COUNTRIES = ("US", "RU", "NL", "DE", "FR", "CN", "GB", "BR", "UA", "RO",
                   "CZ", "PL", "TR", "IN", "VN", "KR", "JP", "CA", "IT", "SE")


class AsDatabase:
    """Prefix-indexed AS registry over the simulated address space."""

    def __init__(self, rng: random.Random, tail_size: int = 100):
        self.records: dict[int, AsRecord] = {}
        self._prefixes: list[tuple[Subnet, int]] = []
        self._next_slash16 = 0
        for record in TOP_C2_ASES + CLOUD_ASES + VICTIM_ASES:
            self.add(record)
        self._add_tail(tail_size, rng)

    # -- construction --------------------------------------------------------

    def _allocate_slash16(self) -> Subnet:
        """Carve sequential /16 blocks out of 101.0.0.0 upward."""
        base = (101 << 24) + (self._next_slash16 << 16)
        self._next_slash16 += 1
        if self._next_slash16 > 0x2000:
            raise RuntimeError("AS prefix space exhausted")
        return Subnet(base, 16)

    def add(self, record: AsRecord, prefix_count: int = 1) -> AsRecord:
        if record.asn in self.records:
            raise ValueError(f"duplicate ASN {record.asn}")
        self.records[record.asn] = record
        for _ in range(prefix_count):
            self._prefixes.append((self._allocate_slash16(), record.asn))
        return record

    def _add_tail(self, count: int, rng: random.Random) -> None:
        used = {record.asn for record in self.records.values()}
        for index in range(count):
            asn = 64512 + index  # private-use ASN range, no collisions
            if asn in used:
                continue
            kind = rng.choice(("hosting", "isp", "isp", "business"))
            record = AsRecord(
                asn=asn,
                name=f"SyntheticNet-{index:03d}",
                country=rng.choice(_TAIL_COUNTRIES),
                kind=kind,
                is_hosting=kind == "hosting",
                anti_ddos=rng.random() < 0.5 if kind == "hosting" else None,
            )
            self.add(record)

    # -- queries ---------------------------------------------------------------

    def lookup(self, address: int) -> AsRecord | None:
        """AS owning ``address``, or None for unallocated space."""
        for subnet, asn in self._prefixes:
            if address in subnet:
                return self.records[asn]
        return None

    def prefixes_for(self, asn: int) -> list[Subnet]:
        return [subnet for subnet, owner in self._prefixes if owner == asn]

    def get(self, asn: int) -> AsRecord | None:
        return self.records.get(asn)

    def __len__(self) -> int:
        return len(self.records)

    def allocator_subnet(self, asn: int, rng: random.Random) -> Subnet:
        """A (random) prefix of ``asn`` to allocate host addresses from."""
        prefixes = self.prefixes_for(asn)
        if not prefixes:
            raise KeyError(f"no prefixes for ASN {asn}")
        return rng.choice(prefixes)

    def allocate_address(
        self, asn: int, allocator: AddressAllocator, rng: random.Random
    ) -> int:
        """Allocate a fresh host address inside one of the AS's prefixes."""
        return allocator.allocate(self.allocator_subnet(asn, rng))


def top10_table(database: AsDatabase) -> list[dict]:
    """Rows of paper Table 2, straight from the seeded records."""
    rows = []
    for record in TOP_C2_ASES:
        current = database.get(record.asn)
        rows.append({
            "as_name": current.name,
            "asn": current.asn,
            "country": current.country,
            "hosting": "Yes" if current.is_hosting else "No",
            "anti_ddos": {True: "Yes", False: "No", None: "N/A"}[current.anti_ddos],
        })
    return rows
