"""DNS wire format (A queries/responses), name zones and a resolver.

IoT C2 addresses in the paper are either raw IPs or DNS names; DNS-named
C2s get their own lifetime CDF (Figure 3) and a markedly worse TI miss
rate (Table 3).  The sandbox's fake Internet (InetSim) also answers DNS so
that binaries with domain-based configs can activate offline.

The encoder/decoder covers the subset the study needs: QR/opcode/RCODE
header bits, QNAME compression-free encoding, A-record answers with TTLs,
and NXDOMAIN responses.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

QTYPE_A = 1
QCLASS_IN = 1
RCODE_NOERROR = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_HEADER = struct.Struct("!HHHHHH")


class DnsError(ValueError):
    """Raised for malformed DNS messages or names."""


def encode_name(name: str) -> bytes:
    """Encode a domain name as DNS labels (no compression)."""
    if name.endswith("."):
        name = name[:-1]
    if not name:
        raise DnsError("empty domain name")
    out = bytearray()
    for label in name.split("."):
        try:
            raw = label.encode("ascii")
        except UnicodeEncodeError:
            raise DnsError(f"non-ASCII label in {name!r}") from None
        if not 1 <= len(raw) <= 63:
            raise DnsError(f"bad label in {name!r}")
        out.append(len(raw))
        out.extend(raw)
    out.append(0)
    if len(out) > 255:
        raise DnsError(f"name too long: {name!r}")
    return bytes(out)


def decode_name(data: bytes, offset: int) -> tuple[str, int]:
    """Decode a label sequence at ``offset``; returns (name, next_offset)."""
    labels: list[str] = []
    while True:
        if offset >= len(data):
            raise DnsError("truncated name")
        length = data[offset]
        offset += 1
        if length == 0:
            break
        if length > 63:
            raise DnsError("compression pointers not supported")
        if offset + length > len(data):
            raise DnsError("truncated label")
        try:
            labels.append(data[offset : offset + length].decode("ascii"))
        except UnicodeDecodeError:
            raise DnsError("non-ASCII label on the wire") from None
        offset += length
    return ".".join(labels), offset


@dataclass
class DnsQuery:
    """A single-question A query."""

    transaction_id: int
    name: str

    def encode(self) -> bytes:
        header = _HEADER.pack(self.transaction_id, 0x0100, 1, 0, 0, 0)
        return header + encode_name(self.name) + struct.pack("!HH", QTYPE_A, QCLASS_IN)


@dataclass
class DnsResponse:
    """A response carrying zero or more A records for one question."""

    transaction_id: int
    name: str
    addresses: list[int] = field(default_factory=list)
    rcode: int = RCODE_NOERROR
    ttl: int = 300

    @property
    def is_nxdomain(self) -> bool:
        return self.rcode == RCODE_NXDOMAIN

    def encode(self) -> bytes:
        flags = 0x8180 | (self.rcode & 0xF)
        header = _HEADER.pack(
            self.transaction_id, flags, 1, len(self.addresses), 0, 0
        )
        question = encode_name(self.name) + struct.pack("!HH", QTYPE_A, QCLASS_IN)
        answers = bytearray()
        for address in self.addresses:
            answers += encode_name(self.name)
            answers += struct.pack("!HHIH", QTYPE_A, QCLASS_IN, self.ttl, 4)
            answers += struct.pack("!I", address)
        return header + question + bytes(answers)


def decode_message(data: bytes) -> DnsQuery | DnsResponse:
    """Decode a DNS message into a query or response object."""
    if len(data) < _HEADER.size:
        raise DnsError("short DNS header")
    txid, flags, qdcount, ancount, _ns, _ar = _HEADER.unpack(data[: _HEADER.size])
    if qdcount != 1:
        raise DnsError(f"expected one question, got {qdcount}")
    name, offset = decode_name(data, _HEADER.size)
    if offset + 4 > len(data):
        raise DnsError("truncated question")
    qtype, qclass = struct.unpack("!HH", data[offset : offset + 4])
    offset += 4
    if (qtype, qclass) != (QTYPE_A, QCLASS_IN):
        raise DnsError(f"unsupported question type {qtype}/{qclass}")
    if not flags & 0x8000:
        return DnsQuery(txid, name)
    response = DnsResponse(txid, name, rcode=flags & 0xF)
    for _ in range(ancount):
        _rrname, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise DnsError("truncated answer")
        rtype, rclass, ttl, rdlength = struct.unpack("!HHIH", data[offset : offset + 10])
        offset += 10
        if offset + rdlength > len(data):
            raise DnsError("truncated rdata")
        rdata = data[offset : offset + rdlength]
        offset += rdlength
        if (rtype, rclass) == (QTYPE_A, QCLASS_IN):
            if rdlength != 4:
                raise DnsError("bad A rdata length")
            response.addresses.append(struct.unpack("!I", rdata)[0])
            response.ttl = ttl
    return response


class Zones:
    """The registrar's record: every name's binding history.

    Registrations may change over time (C2 operators re-point domains when
    a server is taken down), so the store keeps a history of bindings per
    name.  A world builds its zones once; runs read them through their
    own :class:`Resolver`.
    """

    def __init__(self, defense=None) -> None:
        #: name -> list of (effective_from_time, address or None)
        self._zones: dict[str, list[tuple[float, int | None]]] = {}
        #: optional in-line defender (repro.defense.DnsDefense): observes
        #: registrations, scores names, and vetoes blocklisted lookups
        self.defense = defense

    def register(self, name: str, address: int | None, since: float = 0.0) -> None:
        """Bind ``name`` to ``address`` (None = withdrawn) from ``since``."""
        history = self._zones.setdefault(name.lower(), [])
        history.append((since, address))
        history.sort(key=lambda item: item[0])
        if self.defense is not None and address is not None:
            self.defense.observe_registration(name, since)

    def binding(self, name: str, now: float) -> int | None:
        """The address ``name`` is bound to at simulation time ``now``.

        A withdrawal registered at ``t`` takes effect *at* ``t`` (``since >
        now`` keeps the newer binding), so server lifetimes are
        end-exclusive: resolving at exactly ``online_until`` already sees
        the takedown.
        """
        current: int | None = None
        for since, address in self._zones.get(name.lower(), ()):
            if since > now:
                break
            current = address
        return current

    def known_names(self) -> list[str]:
        return sorted(self._zones)


class Resolver:
    """One run's backbone resolver over a world's :class:`Zones`.

    It applies the zones' defender, the run's fault injector (transient
    SERVFAIL slots make resolution retryable rather than absent) and, with
    a metrics registry, counts every query exactly once under its outcome
    — including SERVFAIL fault slots and defender-blocked lookups.
    """

    #: every lookup ends in exactly one of these outcomes
    OUTCOMES = ("resolved", "nxdomain", "servfail", "blocked")

    def __init__(self, zones: Zones, faults=None, metrics=None) -> None:
        self.zones = zones
        self.faults = faults
        self._metrics: tuple | None = None
        if metrics is None:
            return
        queries = metrics.counter(
            "dns_queries_total",
            "resolver queries by outcome",
            labelnames=("outcome",),
        )
        for outcome in self.OUTCOMES:
            queries.labels(outcome=outcome)
        self._metrics = (
            queries,
            metrics.counter(
                "dns_blocked_total",
                "queries denied by the defender blocklist",
            ),
            metrics.counter(
                "dga_domains_total",
                "queries for names the defender scores as machine-generated",
            ),
        )

    def _lookup(self, name: str, now: float) -> tuple[int | None, str]:
        """Resolution plus its outcome; callers count exactly once."""
        defense = self.zones.defense
        if defense is not None:
            if self._metrics is not None and defense.is_dga(name):
                self._metrics[2].inc()
            if defense.blocked(name, now):
                return None, "blocked"
        if self.faults is not None and self.faults.dns_servfail(name, now):
            return None, "servfail"
        current = self.zones.binding(name, now)
        return current, ("resolved" if current is not None else "nxdomain")

    def _count(self, outcome: str) -> None:
        if self._metrics is None:
            return
        queries, blocked, _dga = self._metrics
        queries.labels(outcome=outcome).inc()
        if outcome == "blocked":
            blocked.inc()

    def resolve(self, name: str, now: float = 0.0) -> int | None:
        """Current A record for ``name`` at simulation time ``now``."""
        address, outcome = self._lookup(name, now)
        self._count(outcome)
        return address

    def answer(self, query: DnsQuery, now: float = 0.0) -> DnsResponse:
        """Build the wire response for a query."""
        address, outcome = self._lookup(query.name, now)
        self._count(outcome)
        if outcome == "servfail":
            return DnsResponse(query.transaction_id, query.name,
                               rcode=RCODE_SERVFAIL)
        if address is None:
            # blocklisted names are sinkholed RPZ-style as NXDOMAIN
            return DnsResponse(query.transaction_id, query.name, rcode=RCODE_NXDOMAIN)
        return DnsResponse(query.transaction_id, query.name, [address])


def random_transaction_id(rng: random.Random) -> int:
    return rng.randrange(0, 0x10000)
