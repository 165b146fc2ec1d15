"""pcap (v2.4) capture files and in-memory traffic captures.

The sandbox records malware traffic exactly like the paper's setup: as pcap
files.  :class:`PcapWriter`/:class:`PcapReader` implement the classic
libpcap file format (magic ``0xa1b2c3d4``, microsecond resolution) with
``LINKTYPE_RAW`` (101), i.e. each record is a bare IPv4 datagram as encoded
by :mod:`repro.netsim.packet`.

:class:`Capture` is the in-memory view used by the analysis code; it can be
persisted to a pcap byte string and reloaded losslessly.
"""

from __future__ import annotations

import struct
from array import array
from typing import BinaryIO, Iterable, Iterator

from .packet import (
    DEFAULT_TTL,
    TCP_FLAGS,
    Packet,
    Protocol,
    decode_packet,
    encode_packet,
)

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION_MAJOR = 2
PCAP_VERSION_MINOR = 4
LINKTYPE_RAW = 101
DEFAULT_SNAPLEN = 65535

_GLOBAL_HEADER = struct.Struct("!IHHiIII")
_RECORD_HEADER = struct.Struct("!IIII")


class CaptureError(ValueError):
    """Raised for malformed pcap data."""


class PcapWriter:
    """Incremental pcap writer over any binary file object."""

    def __init__(self, stream: BinaryIO, snaplen: int = DEFAULT_SNAPLEN):
        self._stream = stream
        self._snaplen = snaplen
        stream.write(
            _GLOBAL_HEADER.pack(
                PCAP_MAGIC,
                PCAP_VERSION_MAJOR,
                PCAP_VERSION_MINOR,
                0,              # thiszone
                0,              # sigfigs
                snaplen,
                LINKTYPE_RAW,
            )
        )
        self.count = 0

    def write(self, pkt: Packet) -> None:
        """Append one packet; its ``timestamp`` becomes the record time."""
        data = encode_packet(pkt)
        captured = data[: self._snaplen]
        seconds = int(pkt.timestamp)
        micros = int(round((pkt.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:
            seconds += 1
            micros -= 1_000_000
        self._stream.write(
            _RECORD_HEADER.pack(seconds, micros, len(captured), len(data))
        )
        self._stream.write(captured)
        self.count += 1

    def write_all(self, packets: Iterable[Packet]) -> None:
        for pkt in packets:
            self.write(pkt)


class PcapReader:
    """Iterates :class:`Packet` records out of a pcap stream."""

    def __init__(self, stream: BinaryIO):
        self._stream = stream
        header = stream.read(_GLOBAL_HEADER.size)
        if len(header) != _GLOBAL_HEADER.size:
            raise CaptureError("truncated pcap global header")
        magic, major, minor, _tz, _sig, self.snaplen, linktype = _GLOBAL_HEADER.unpack(header)
        if magic != PCAP_MAGIC:
            raise CaptureError(f"bad pcap magic: {magic:#x}")
        if (major, minor) != (PCAP_VERSION_MAJOR, PCAP_VERSION_MINOR):
            raise CaptureError(f"unsupported pcap version {major}.{minor}")
        if linktype != LINKTYPE_RAW:
            raise CaptureError(f"unsupported linktype {linktype}")

    def __iter__(self) -> Iterator[Packet]:
        while True:
            header = self._stream.read(_RECORD_HEADER.size)
            if not header:
                return
            if len(header) != _RECORD_HEADER.size:
                raise CaptureError("truncated pcap record header")
            seconds, micros, incl_len, orig_len = _RECORD_HEADER.unpack(header)
            data = self._stream.read(incl_len)
            if len(data) != incl_len:
                raise CaptureError("truncated pcap record body")
            if incl_len != orig_len:
                raise CaptureError("snapped records are not supported")
            yield decode_packet(data, timestamp=seconds + micros / 1_000_000)


#: materialized Protocol singletons per raw column value, so a lazily
#: built packet carries the same enum objects an eager one would (its
#: flags come from :data:`~repro.netsim.packet.TCP_FLAGS` the same way)
_PROTOCOL_OF = {int(member): member for member in Protocol}


def _row_size(protocol: Protocol, payload: bytes) -> int:
    """On-the-wire datagram length; mirrors :attr:`Packet.size` exactly."""
    if protocol == Protocol.TCP:
        return 40 + len(payload)   # 20 IPv4 + 20 TCP
    return 28 + len(payload)       # 20 IPv4 + 8 UDP/ICMP


#: cumulative columnar-store activity for this process; the pipeline
#: snapshots a baseline and publishes deltas as the telemetry counter
#: ``capture_columnar_total{event=rows|built}`` — ``rows`` counts packets
#: recorded without constructing an object, ``built`` counts the subset
#: later materialized because a trace was actually read
COLUMN_STATS = {"rows": 0, "built": 0}


def columnar_stats() -> dict[str, int]:
    """A point-in-time copy of the process-wide columnar-store activity."""
    return dict(COLUMN_STATS)


class PacketColumns:
    """Array-backed parallel columns holding not-yet-built packets.

    One logical packet per index across thirteen columns (typed
    :class:`array.array` for every numeric field, a plain list for the
    payload bytes).  Appends land in a staging list first, and are
    transposed into the arrays in bulk, in recording order, the first
    time anything *reads* the store (:meth:`iter_rows`,
    :meth:`build_into`).  A staged entry is either one row — the full
    13-field column tuple, the cheapest possible record — or a
    *segment*: an object whose ``len`` is its row count and whose
    ``rows()`` builds those rows on that first read (the handshaker's
    :class:`~repro.sandbox.handshaker.ScanSegment`).  The scan-phase
    common case — hundreds of thousands of rows recorded, never read —
    therefore builds neither the rows nor any object.
    :meth:`build_into` reconstructs :class:`Packet` objects that are
    field-for-field identical to eager construction, including the
    ``Protocol``/``TcpFlags`` enum types.
    """

    __slots__ = ("ts", "src", "dst", "sport", "dport", "proto", "flags",
                 "seq", "ack", "ttl", "icmp_type", "icmp_code", "payload",
                 "_staged", "_staged_rows")

    def __init__(self):
        self.ts = array("d")
        self.src = array("Q")
        self.dst = array("Q")
        self.sport = array("H")
        self.dport = array("H")
        self.proto = array("B")
        self.flags = array("B")
        self.seq = array("Q")
        self.ack = array("Q")
        self.ttl = array("B")
        self.icmp_type = array("B")
        self.icmp_code = array("B")
        self.payload: list[bytes] = []
        #: rows and segments recorded but not yet transposed into the
        #: arrays, in recording order
        self._staged: list = []
        #: the rows those entries hold
        self._staged_rows = 0

    def __len__(self) -> int:
        return len(self.ts) + self._staged_rows

    def append_tcp(self, src: int, dst: int, sport: int, dport: int,
                   flags: int, payload: bytes, seq: int, ack: int,
                   timestamp: float) -> None:
        self._staged.append((timestamp, src, dst, sport, dport, 6, flags,
                             seq, ack, DEFAULT_TTL, 0, 0, payload))
        self._staged_rows += 1
        COLUMN_STATS["rows"] += 1

    def append_udp(self, src: int, dst: int, sport: int, dport: int,
                   payload: bytes, timestamp: float) -> None:
        self._staged.append((timestamp, src, dst, sport, dport, 17, 0,
                             0, 0, DEFAULT_TTL, 0, 0, payload))
        self._staged_rows += 1
        COLUMN_STATS["rows"] += 1

    def append_segment(self, segment) -> None:
        """Stage a segment; its rows count as recorded now."""
        rows = len(segment)
        self._staged.append(segment)
        self._staged_rows += rows
        COLUMN_STATS["rows"] += rows

    def _flush(self) -> None:
        """Transpose staged entries into the typed arrays (one bulk pass),
        building each segment's rows in its place."""
        staged = self._staged
        if not staged:
            return
        self._staged = []
        self._staged_rows = 0
        rows: list[tuple] = []
        for entry in staged:
            if type(entry) is tuple:
                rows.append(entry)
            else:
                rows += entry.rows()
        if not rows:
            return
        cols = list(zip(*rows))
        self.ts.extend(cols[0])
        self.src.extend(cols[1])
        self.dst.extend(cols[2])
        self.sport.extend(cols[3])
        self.dport.extend(cols[4])
        self.proto.extend(cols[5])
        self.flags.extend(map(int, cols[6]))
        self.seq.extend(cols[7])
        self.ack.extend(cols[8])
        self.ttl.extend(cols[9])
        self.icmp_type.extend(cols[10])
        self.icmp_code.extend(cols[11])
        self.payload.extend(cols[12])

    def iter_rows(self) -> Iterator[tuple]:
        """Rows in :class:`Packet` field order, without building objects."""
        self._flush()
        return zip(self.src, self.dst,
                   map(_PROTOCOL_OF.__getitem__, self.proto),
                   self.sport, self.dport, self.payload,
                   map(TCP_FLAGS.__getitem__, self.flags),
                   self.seq, self.ack, self.ttl,
                   self.icmp_type, self.icmp_code, self.ts)

    def build_into(self, out: list[Packet]) -> None:
        """Materialize every row as a :class:`Packet`, appending to ``out``."""
        append = out.append
        for row in self.iter_rows():
            append(Packet(*row))
        COLUMN_STATS["built"] += len(self.ts)


class Capture:
    """An ordered, timestamped packet capture plus query helpers.

    Recording supports three speeds.  :meth:`add` appends a materialized
    :class:`Packet` — callers that keep a reference to the object (the
    live path re-stamps timestamps after recording) get shared-object
    semantics.  :meth:`add_tcp` / :meth:`add_udp` append one row to an
    array-backed columnar tail (:class:`PacketColumns`) without building
    a ``Packet`` at all — the fake-Internet hot paths record thousands
    of packets that are usually never read as objects — and
    :meth:`add_segment` appends a whole batch whose rows are not even
    built until something reads them (a scan burst's, hundreds of rows
    a sample).  Field-level readers (:meth:`iter_rows` and the scalar
    queries) consume the columns directly; ``Packet`` objects are built
    only if :attr:`packets` is actually read, in recording order and
    with the timestamps fixed at record time.  Either way the observable
    packet list is identical; the columnar tail only removes
    construction cost for packets nobody reads.
    """

    __slots__ = ("_packets", "_cols", "label")

    def __init__(self, packets: list[Packet] | None = None, label: str = ""):
        self._packets: list[Packet] = packets if packets is not None else []
        self._cols: PacketColumns | None = None
        self.label = label

    @property
    def packets(self) -> list[Packet]:
        if self._cols is not None:
            self._materialize()
        return self._packets

    @packets.setter
    def packets(self, packets: list[Packet]) -> None:
        self._packets = packets
        self._cols = None

    def _materialize(self) -> None:
        cols = self._cols
        self._cols = None
        if cols is not None and len(cols):
            cols.build_into(self._packets)

    def _tail(self) -> PacketColumns:
        cols = self._cols
        if cols is None:
            cols = self._cols = PacketColumns()
        return cols

    def add(self, pkt: Packet) -> None:
        if self._cols is not None:
            self._materialize()
        self._packets.append(pkt)

    def add_tcp(self, src: int, dst: int, sport: int, dport: int,
                flags: int, payload: bytes = b"", seq: int = 0,
                ack: int = 0, timestamp: float = 0.0) -> None:
        """Record a TCP packet as a columnar row (no object built)."""
        cols = self._cols
        if cols is None:
            cols = self._cols = PacketColumns()
        cols.append_tcp(src, dst, sport, dport, flags, payload,
                        seq, ack, timestamp)

    def add_udp(self, src: int, dst: int, sport: int, dport: int,
                payload: bytes = b"", timestamp: float = 0.0) -> None:
        """Record a UDP packet as a columnar row (no object built)."""
        cols = self._cols
        if cols is None:
            cols = self._cols = PacketColumns()
        cols.append_udp(src, dst, sport, dport, payload, timestamp)

    def add_segment(self, segment) -> None:
        """Record a batch of rows that is built only if it is read.

        ``segment`` has a ``len`` (its row count) and a ``rows()`` that
        returns its 13-field column tuples in recording order —
        ``(timestamp, src, dst, sport, dport, protocol, flags, seq, ack,
        ttl, icmp_type, icmp_code, payload)``, with integer protocol and
        flags, exactly what :meth:`add_tcp`/:meth:`add_udp` stage one at
        a time.  Whatever the rows hold must be fixed when the segment is
        recorded: they read back like the same rows added singly.
        """
        self._tail().append_segment(segment)

    def extend(self, packets: Iterable[Packet]) -> None:
        if self._cols is not None:
            self._materialize()
        self._packets.extend(packets)

    def __len__(self) -> int:
        cols = self._cols
        return len(self._packets) + (len(cols) if cols is not None else 0)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index: int) -> Packet:
        return self.packets[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Capture):
            return NotImplemented
        return self.label == other.label and self.packets == other.packets

    def __repr__(self) -> str:
        return (f"Capture(packets=<{len(self)} packets>, "
                f"label={self.label!r})")

    # -- field-level reads --------------------------------------------------

    def iter_rows(self) -> Iterator[tuple]:
        """Every packet as a tuple in :class:`Packet` field order.

        ``(src, dst, protocol, sport, dport, payload, flags, seq, ack,
        ttl, icmp_type, icmp_code, timestamp)`` — already-materialized
        packets are decomposed, columnar rows are yielded directly, so
        iterating never triggers materialization.  ``Packet(*row)``
        rebuilds the equivalent object when one is genuinely needed.
        """
        for p in self._packets:
            yield (p.src, p.dst, p.protocol, p.sport, p.dport, p.payload,
                   p.flags, p.seq, p.ack, p.ttl, p.icmp_type, p.icmp_code,
                   p.timestamp)
        cols = self._cols
        if cols is not None:
            yield from cols.iter_rows()

    # -- queries -----------------------------------------------------------

    def destinations(self) -> set[int]:
        return {row[1] for row in self.iter_rows()}

    def duration(self) -> float:
        if not len(self):
            return 0.0
        times = [row[12] for row in self.iter_rows()]
        return max(times) - min(times)

    def total_bytes(self) -> int:
        return sum(_row_size(row[2], row[5]) for row in self.iter_rows())

    # -- persistence ---------------------------------------------------------

    def to_pcap_bytes(self) -> bytes:
        import io

        buf = io.BytesIO()
        writer = PcapWriter(buf)
        writer.write_all(self.packets)
        return buf.getvalue()

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_pcap_bytes())

    @classmethod
    def from_pcap_bytes(cls, data: bytes, label: str = "") -> "Capture":
        import io

        reader = PcapReader(io.BytesIO(data))
        return cls(list(reader), label)

    @classmethod
    def load(cls, path: str) -> "Capture":
        with open(path, "rb") as fh:
            return cls.from_pcap_bytes(fh.read(), label=path)
