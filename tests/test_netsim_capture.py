"""Tests for pcap I/O and the in-memory Capture."""

import io
import struct

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import ip_to_int
from repro.netsim.capture import (
    Capture,
    CaptureError,
    PcapReader,
    PcapWriter,
    PCAP_MAGIC,
)
from repro.netsim.packet import TcpFlags, icmp_packet, tcp_packet, udp_packet

A = ip_to_int("198.51.100.1")
B = ip_to_int("203.0.113.1")
C = ip_to_int("192.0.2.1")


def sample_packets():
    return [
        tcp_packet(A, B, 1000, 80, TcpFlags.SYN, timestamp=1.0),
        tcp_packet(B, A, 80, 1000, TcpFlags.SYN | TcpFlags.ACK, timestamp=1.5),
        udp_packet(A, C, 5353, 53, b"dns?", timestamp=2.25),
        icmp_packet(C, A, 8, payload=b"ping", timestamp=3.125),
    ]


class TestPcapFormat:
    def test_global_header_fields(self):
        buf = io.BytesIO()
        PcapWriter(buf)
        magic, major, minor, _tz, _sig, snaplen, linktype = struct.unpack(
            "!IHHiIII", buf.getvalue()
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert snaplen == 65535
        assert linktype == 101  # LINKTYPE_RAW

    def test_roundtrip(self):
        packets = sample_packets()
        buf = io.BytesIO()
        writer = PcapWriter(buf)
        writer.write_all(packets)
        assert writer.count == len(packets)
        buf.seek(0)
        restored = list(PcapReader(buf))
        assert restored == packets

    def test_timestamps_preserved_to_microseconds(self):
        pkt = udp_packet(A, B, 1, 2, b"x", timestamp=1234.567891)
        buf = io.BytesIO()
        PcapWriter(buf).write(pkt)
        buf.seek(0)
        (restored,) = list(PcapReader(buf))
        assert abs(restored.timestamp - 1234.567891) < 1e-6

    def test_bad_magic_rejected(self):
        data = b"\x00" * 24
        with pytest.raises(CaptureError):
            PcapReader(io.BytesIO(data))

    def test_truncated_record_rejected(self):
        buf = io.BytesIO()
        PcapWriter(buf).write(udp_packet(A, B, 1, 2, b"abc"))
        data = buf.getvalue()[:-2]
        reader = PcapReader(io.BytesIO(data))
        with pytest.raises(CaptureError):
            list(reader)

    def test_empty_file_yields_nothing(self):
        buf = io.BytesIO()
        PcapWriter(buf)
        buf.seek(0)
        assert list(PcapReader(buf)) == []


class TestCapture:
    def test_roundtrip_bytes(self):
        cap = Capture(sample_packets(), label="t")
        restored = Capture.from_pcap_bytes(cap.to_pcap_bytes())
        assert restored.packets == cap.packets

    def test_save_and_load(self, tmp_path):
        cap = Capture(sample_packets())
        path = tmp_path / "trace.pcap"
        cap.save(str(path))
        assert Capture.load(str(path)).packets == cap.packets

    @given(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=0xFFFFFFFE),
            st.integers(min_value=0, max_value=0xFFFF),
            st.binary(max_size=32),
            st.floats(min_value=0, max_value=1e9, allow_nan=False),
        ),
        max_size=20,
    ))
    def test_roundtrip_property(self, rows):
        packets = [
            udp_packet(A, dst, 1000, dport, payload, timestamp=round(ts, 5))
            for dst, dport, payload, ts in rows
        ]
        cap = Capture(packets)
        restored = Capture.from_pcap_bytes(cap.to_pcap_bytes())
        assert len(restored) == len(cap)
        for orig, back in zip(cap, restored):
            assert (back.dst, back.dport, back.payload) == (
                orig.dst, orig.dport, orig.payload
            )
            assert abs(back.timestamp - orig.timestamp) < 1e-5

    def test_stats(self):
        cap = Capture(sample_packets())
        assert cap.destinations() == {B, C, A}
        assert cap.duration() == pytest.approx(2.125)
        assert cap.total_bytes() == sum(p.size for p in cap)

    def test_empty_capture_stats(self):
        cap = Capture()
        assert cap.duration() == 0.0
        assert cap.total_bytes() == 0
