"""Flow aggregation over captures.

MalNet's traffic analysis (C2 detection, DDoS rate heuristics, port
popularity for the handshaker) works on per-flow summaries rather than raw
packets.  A *flow* here is the classic 5-tuple with direction normalized so
that both directions of a TCP/UDP conversation fall into one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .capture import Capture
from .packet import ACK, FIN, RST, SYN, Packet, Protocol


@dataclass(frozen=True)
class FlowKey:
    """Direction-normalized 5-tuple; ``initiator`` kept separately."""

    low_host: int
    low_port: int
    high_host: int
    high_port: int
    protocol: Protocol

    @classmethod
    def for_packet(cls, pkt: Packet) -> "FlowKey":
        a = (pkt.src, pkt.sport)
        b = (pkt.dst, pkt.dport)
        if a <= b:
            return cls(a[0], a[1], b[0], b[1], pkt.protocol)
        return cls(b[0], b[1], a[0], a[1], pkt.protocol)


@dataclass
class Flow:
    """Aggregated statistics for one conversation."""

    key: FlowKey
    initiator: int
    responder: int
    initiator_port: int
    responder_port: int
    first_time: float
    last_time: float
    packets_fwd: int = 0
    packets_rev: int = 0
    bytes_fwd: int = 0
    bytes_rev: int = 0
    payload_fwd: bytearray = field(default_factory=bytearray)
    payload_rev: bytearray = field(default_factory=bytearray)
    syn_seen: bool = False
    synack_seen: bool = False
    rst_seen: bool = False
    fin_seen: bool = False

    @property
    def protocol(self) -> Protocol:
        return self.key.protocol

    @property
    def bidirectional(self) -> bool:
        return self.packets_fwd > 0 and self.packets_rev > 0

    @property
    def duration(self) -> float:
        return self.last_time - self.first_time

    @property
    def total_packets(self) -> int:
        return self.packets_fwd + self.packets_rev

    @property
    def total_bytes(self) -> int:
        return self.bytes_fwd + self.bytes_rev

    def observe(self, pkt: Packet) -> None:
        self.observe_fields(pkt.src, pkt.sport, pkt.timestamp, pkt.size,
                            pkt.payload, pkt.protocol, pkt.flags)

    def observe_fields(self, src: int, sport: int, timestamp: float,
                       size: int, payload: bytes, protocol: Protocol,
                       flags: int) -> None:
        """Fold one packet's fields in without needing a ``Packet`` object
        (``flags`` is an int or a :class:`TcpFlags`)."""
        forward = src == self.initiator and sport == self.initiator_port
        self.last_time = max(self.last_time, timestamp)
        self.first_time = min(self.first_time, timestamp)
        if forward:
            self.packets_fwd += 1
            self.bytes_fwd += size
            if len(self.payload_fwd) < 1 << 20:
                self.payload_fwd.extend(payload)
        else:
            self.packets_rev += 1
            self.bytes_rev += size
            if len(self.payload_rev) < 1 << 20:
                self.payload_rev.extend(payload)
        if protocol == Protocol.TCP:
            flags = int(flags)
            handshake = flags & (SYN | ACK)
            if handshake == SYN:
                self.syn_seen = True
            elif handshake == SYN | ACK:
                self.synack_seen = True
            if flags & RST:
                self.rst_seen = True
            if flags & FIN:
                self.fin_seen = True


class FlowTable:
    """Builds flows from packets (streaming or from a capture)."""

    def __init__(self) -> None:
        self._flows: dict[FlowKey, Flow] = {}

    def observe(self, pkt: Packet) -> Flow:
        key = FlowKey.for_packet(pkt)
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(
                key=key,
                initiator=pkt.src,
                responder=pkt.dst,
                initiator_port=pkt.sport,
                responder_port=pkt.dport,
                first_time=pkt.timestamp,
                last_time=pkt.timestamp,
            )
            self._flows[key] = flow
        flow.observe(pkt)
        return flow

    def observe_row(self, row: tuple) -> Flow:
        """Fold one :meth:`Capture.iter_rows` tuple in, object-free."""
        (src, dst, protocol, sport, dport, payload, flags,
         _seq, _ack, _ttl, _icmp_type, _icmp_code, timestamp) = row
        if (src, sport) <= (dst, dport):
            key = FlowKey(src, sport, dst, dport, protocol)
        else:
            key = FlowKey(dst, dport, src, sport, protocol)
        flow = self._flows.get(key)
        if flow is None:
            flow = Flow(
                key=key, initiator=src, responder=dst, initiator_port=sport,
                responder_port=dport, first_time=timestamp,
                last_time=timestamp,
            )
            self._flows[key] = flow
        if protocol == Protocol.TCP:
            size = 40 + len(payload)   # mirrors Packet.size
        else:
            size = 28 + len(payload)
        flow.observe_fields(src, sport, timestamp, size, payload, protocol,
                            flags)
        return flow

    @classmethod
    def from_capture(cls, capture: Capture) -> "FlowTable":
        table = cls()
        rows = getattr(capture, "iter_rows", None)
        if rows is not None:
            # field-level read: a columnar capture aggregates into flows
            # without ever building Packet objects
            observe_row = table.observe_row
            for row in rows():
                observe_row(row)
        else:
            for pkt in capture:
                table.observe(pkt)
        return table

    def flows(self) -> list[Flow]:
        return list(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    # -- study-specific queries --------------------------------------------

    def flows_from(self, initiator: int) -> list[Flow]:
        return [f for f in self._flows.values() if f.initiator == initiator]
