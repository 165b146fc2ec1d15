"""Struct-level IPv4/TCP/UDP/ICMP packet encoding and decoding.

The simulation moves :class:`Packet` objects (cheap dataclasses) between
hosts, but every packet can be serialized to real wire bytes — including
correct IPv4/TCP/UDP/ICMP checksums — so captures written by
:mod:`repro.netsim.capture` are genuine pcap files that external tools can
parse.  Decoding is the strict inverse and is exercised by property-based
tests.

Only the fields the study needs are modeled; options are not supported and
fragmentation is never used (IoT C2/DDoS traffic in the paper does not rely
on either).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .addresses import checksum16, int_to_ip

IPV4_VERSION_IHL = 0x45  # version 4, 20-byte header
IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8
ICMP_HEADER_LEN = 8
DEFAULT_TTL = 64


class Protocol(enum.IntEnum):
    """IP protocol numbers used in the study."""

    ICMP = 1
    TCP = 6
    UDP = 17


class TcpFlags(enum.IntFlag):
    """TCP flag bits (low byte of the flags field)."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20


#: The flag bits as plain ints.  The simulation tests and composes flags
#: with these; a packet's ``flags`` is still a :class:`TcpFlags`, taken
#: from :data:`TCP_FLAGS`, so nothing on the hot path calls into the enum.
FIN, SYN, RST, PSH, ACK = 0x01, 0x02, 0x04, 0x08, 0x10

#: ``TcpFlags(value)`` for every value the six bits make
TCP_FLAGS = tuple(TcpFlags(value) for value in range(64))


class PacketError(ValueError):
    """Raised when wire bytes cannot be decoded."""


@dataclass(slots=True)
class Packet:
    """A single IPv4 datagram in flight inside the virtual Internet.

    ``src``/``dst`` are integer IPv4 addresses; ``sport``/``dport`` are 0
    for ICMP.  ``payload`` is the transport payload (TCP/UDP data, or the
    ICMP body after the 8-byte ICMP header).
    """

    src: int
    dst: int
    protocol: Protocol
    sport: int = 0
    dport: int = 0
    payload: bytes = b""
    flags: TcpFlags = TcpFlags(0)
    seq: int = 0
    ack: int = 0
    ttl: int = DEFAULT_TTL
    icmp_type: int = 0
    icmp_code: int = 0
    timestamp: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.sport <= 0xFFFF or not 0 <= self.dport <= 0xFFFF:
            raise PacketError(f"port out of range: {self.sport}/{self.dport}")

    # -- convenience -------------------------------------------------------

    @property
    def src_ip(self) -> str:
        return int_to_ip(self.src)

    @property
    def dst_ip(self) -> str:
        return int_to_ip(self.dst)

    @property
    def is_syn(self) -> bool:
        return int(self.flags) & (SYN | ACK) == SYN

    @property
    def is_synack(self) -> bool:
        return int(self.flags) & (SYN | ACK) == SYN | ACK

    @property
    def size(self) -> int:
        """Total on-the-wire IPv4 datagram length in bytes."""
        if self.protocol == Protocol.TCP:
            return IPV4_HEADER_LEN + TCP_HEADER_LEN + len(self.payload)
        if self.protocol == Protocol.UDP:
            return IPV4_HEADER_LEN + UDP_HEADER_LEN + len(self.payload)
        return IPV4_HEADER_LEN + ICMP_HEADER_LEN + len(self.payload)

    def describe(self) -> str:
        """One-line human-readable summary (used in reports and logs)."""
        proto = self.protocol.name
        if self.protocol == Protocol.ICMP:
            return (
                f"{self.src_ip} > {self.dst_ip} ICMP type={self.icmp_type} "
                f"code={self.icmp_code} len={len(self.payload)}"
            )
        flag_text = ""
        if self.protocol == Protocol.TCP and self.flags:
            flag_text = f" [{self.flags!s}]".replace("TcpFlags.", "")
        return (
            f"{self.src_ip}:{self.sport} > {self.dst_ip}:{self.dport} "
            f"{proto}{flag_text} len={len(self.payload)}"
        )


# -- encoding ---------------------------------------------------------------


def _ipv4_header(pkt: Packet, total_length: int) -> bytes:
    header = struct.pack(
        "!BBHHHBBHII",
        IPV4_VERSION_IHL,
        0,                # DSCP/ECN
        total_length,
        0,                # identification (unused; no fragmentation)
        0,                # flags+fragment offset
        pkt.ttl,
        int(pkt.protocol),
        0,                # checksum placeholder
        pkt.src,
        pkt.dst,
    )
    check = checksum16(header)
    return header[:10] + struct.pack("!H", check) + header[12:]


def _pseudo_header(pkt: Packet, length: int) -> bytes:
    return struct.pack("!IIBBH", pkt.src, pkt.dst, 0, int(pkt.protocol), length)


def _encode_tcp(pkt: Packet) -> bytes:
    segment = struct.pack(
        "!HHIIBBHHH",
        pkt.sport,
        pkt.dport,
        pkt.seq & 0xFFFFFFFF,
        pkt.ack & 0xFFFFFFFF,
        (TCP_HEADER_LEN // 4) << 4,
        int(pkt.flags) & 0xFF,
        65535,            # window
        0,                # checksum placeholder
        0,                # urgent pointer
    ) + pkt.payload
    check = checksum16(_pseudo_header(pkt, len(segment)) + segment)
    return segment[:16] + struct.pack("!H", check) + segment[18:]


def _encode_udp(pkt: Packet) -> bytes:
    length = UDP_HEADER_LEN + len(pkt.payload)
    datagram = struct.pack("!HHHH", pkt.sport, pkt.dport, length, 0) + pkt.payload
    check = checksum16(_pseudo_header(pkt, length) + datagram)
    if check == 0:
        check = 0xFFFF  # RFC 768: zero means "no checksum"
    return datagram[:6] + struct.pack("!H", check) + datagram[8:]


def _encode_icmp(pkt: Packet) -> bytes:
    body = struct.pack("!BBHI", pkt.icmp_type, pkt.icmp_code, 0, 0) + pkt.payload
    check = checksum16(body)
    return body[:2] + struct.pack("!H", check) + body[4:]


def encode_packet(pkt: Packet) -> bytes:
    """Serialize a :class:`Packet` to IPv4 wire bytes with valid checksums."""
    if pkt.protocol == Protocol.TCP:
        transport = _encode_tcp(pkt)
    elif pkt.protocol == Protocol.UDP:
        transport = _encode_udp(pkt)
    elif pkt.protocol == Protocol.ICMP:
        transport = _encode_icmp(pkt)
    else:  # pragma: no cover - Protocol enum is closed
        raise PacketError(f"unsupported protocol: {pkt.protocol}")
    return _ipv4_header(pkt, IPV4_HEADER_LEN + len(transport)) + transport


# -- decoding ---------------------------------------------------------------


def decode_packet(data: bytes, timestamp: float = 0.0) -> Packet:
    """Parse IPv4 wire bytes back into a :class:`Packet`.

    Checksums are verified; a bad checksum raises :class:`PacketError`.
    """
    if len(data) < IPV4_HEADER_LEN:
        raise PacketError("short IPv4 header")
    version_ihl, _dscp, total_length, _ident, _frag, ttl, proto_num, _check, src, dst = (
        struct.unpack("!BBHHHBBHII", data[:IPV4_HEADER_LEN])
    )
    if version_ihl != IPV4_VERSION_IHL:
        raise PacketError(f"unsupported version/IHL byte: {version_ihl:#x}")
    if total_length != len(data):
        raise PacketError(
            f"length mismatch: header says {total_length}, got {len(data)}"
        )
    if checksum16(data[:IPV4_HEADER_LEN]) != 0:
        raise PacketError("bad IPv4 header checksum")
    try:
        protocol = Protocol(proto_num)
    except ValueError as exc:
        raise PacketError(f"unsupported IP protocol {proto_num}") from exc
    body = data[IPV4_HEADER_LEN:]
    pkt = Packet(src=src, dst=dst, protocol=protocol, ttl=ttl, timestamp=timestamp)
    if protocol == Protocol.TCP:
        return _decode_tcp(pkt, body)
    if protocol == Protocol.UDP:
        return _decode_udp(pkt, body)
    return _decode_icmp(pkt, body)


def _decode_tcp(pkt: Packet, body: bytes) -> Packet:
    if len(body) < TCP_HEADER_LEN:
        raise PacketError("short TCP header")
    sport, dport, seq, ack, offset_byte, flag_byte, _win, _check, _urg = struct.unpack(
        "!HHIIBBHHH", body[:TCP_HEADER_LEN]
    )
    data_offset = (offset_byte >> 4) * 4
    if data_offset != TCP_HEADER_LEN:
        raise PacketError("TCP options not supported")
    if checksum16(_pseudo_header_raw(pkt, len(body)) + body) != 0:
        raise PacketError("bad TCP checksum")
    pkt.sport, pkt.dport = sport, dport
    pkt.seq, pkt.ack = seq, ack
    pkt.flags = TcpFlags(flag_byte)
    pkt.payload = body[TCP_HEADER_LEN:]
    return pkt


def _decode_udp(pkt: Packet, body: bytes) -> Packet:
    if len(body) < UDP_HEADER_LEN:
        raise PacketError("short UDP header")
    sport, dport, length, check = struct.unpack("!HHHH", body[:UDP_HEADER_LEN])
    if length != len(body):
        raise PacketError("UDP length mismatch")
    if check != 0 and checksum16(_pseudo_header_raw(pkt, len(body)) + body) not in (0, 0xFFFF):
        raise PacketError("bad UDP checksum")
    pkt.sport, pkt.dport = sport, dport
    pkt.payload = body[UDP_HEADER_LEN:]
    return pkt


def _decode_icmp(pkt: Packet, body: bytes) -> Packet:
    if len(body) < ICMP_HEADER_LEN:
        raise PacketError("short ICMP header")
    if checksum16(body) != 0:
        raise PacketError("bad ICMP checksum")
    icmp_type, icmp_code, _check, _rest = struct.unpack("!BBHI", body[:ICMP_HEADER_LEN])
    pkt.icmp_type, pkt.icmp_code = icmp_type, icmp_code
    pkt.payload = body[ICMP_HEADER_LEN:]
    return pkt


def _pseudo_header_raw(pkt: Packet, length: int) -> bytes:
    return struct.pack("!IIBBH", pkt.src, pkt.dst, 0, int(pkt.protocol), length)


# -- factory helpers --------------------------------------------------------


def tcp_packet(
    src: int,
    dst: int,
    sport: int,
    dport: int,
    flags: int,
    payload: bytes = b"",
    seq: int = 0,
    ack: int = 0,
    timestamp: float = 0.0,
) -> Packet:
    """Build a TCP packet; ``flags`` is an int or a :class:`TcpFlags`."""
    # positional: the simulation builds one per segment, and keyword
    # arguments take the dataclass __init__ twice as long
    return Packet(src, dst, Protocol.TCP, sport, dport, payload,
                  TCP_FLAGS[flags], seq, ack, DEFAULT_TTL, 0, 0, timestamp)


def udp_packet(
    src: int,
    dst: int,
    sport: int,
    dport: int,
    payload: bytes = b"",
    timestamp: float = 0.0,
) -> Packet:
    """Build a UDP packet."""
    return Packet(
        src=src, dst=dst, protocol=Protocol.UDP, sport=sport, dport=dport,
        payload=payload, timestamp=timestamp,
    )


def icmp_packet(
    src: int,
    dst: int,
    icmp_type: int,
    icmp_code: int = 0,
    payload: bytes = b"",
    timestamp: float = 0.0,
) -> Packet:
    """Build an ICMP packet."""
    return Packet(
        src=src, dst=dst, protocol=Protocol.ICMP,
        icmp_type=icmp_type, icmp_code=icmp_code,
        payload=payload, timestamp=timestamp,
    )
