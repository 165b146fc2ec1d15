"""Unit and property tests for packet encode/decode."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import ip_to_int
from repro.netsim.packet import (
    Packet,
    PacketError,
    Protocol,
    TcpFlags,
    decode_packet,
    encode_packet,
    icmp_packet,
    tcp_packet,
    udp_packet,
)

SRC = ip_to_int("198.51.100.10")
DST = ip_to_int("203.0.113.20")

ips = st.integers(min_value=0, max_value=0xFFFFFFFF)
ports = st.integers(min_value=0, max_value=0xFFFF)
payloads = st.binary(min_size=0, max_size=256)


class TestTcpRoundtrip:
    def test_basic(self):
        pkt = tcp_packet(SRC, DST, 1234, 80, TcpFlags.SYN, seq=42)
        decoded = decode_packet(encode_packet(pkt))
        assert decoded.src == SRC and decoded.dst == DST
        assert decoded.sport == 1234 and decoded.dport == 80
        assert decoded.flags == TcpFlags.SYN
        assert decoded.seq == 42

    @given(src=ips, dst=ips, sport=ports, dport=ports, payload=payloads,
           seq=st.integers(min_value=0, max_value=2**32 - 1),
           ack=st.integers(min_value=0, max_value=2**32 - 1),
           flags=st.integers(min_value=0, max_value=0x3F))
    def test_roundtrip_property(self, src, dst, sport, dport, payload, seq, ack, flags):
        pkt = tcp_packet(src, dst, sport, dport, TcpFlags(flags), payload, seq, ack)
        decoded = decode_packet(encode_packet(pkt))
        assert decoded == pkt


class TestUdpRoundtrip:
    def test_basic(self):
        pkt = udp_packet(SRC, DST, 53, 53, b"query")
        decoded = decode_packet(encode_packet(pkt))
        assert decoded.payload == b"query"
        assert decoded.protocol == Protocol.UDP

    @given(src=ips, dst=ips, sport=ports, dport=ports, payload=payloads)
    def test_roundtrip_property(self, src, dst, sport, dport, payload):
        pkt = udp_packet(src, dst, sport, dport, payload)
        assert decode_packet(encode_packet(pkt)) == pkt


class TestIcmpRoundtrip:
    def test_blacknurse_shape(self):
        # ICMP type 3 code 3 is the BLACKNURSE attack packet
        pkt = icmp_packet(SRC, DST, icmp_type=3, icmp_code=3, payload=b"x" * 32)
        decoded = decode_packet(encode_packet(pkt))
        assert decoded.icmp_type == 3 and decoded.icmp_code == 3
        assert decoded.payload == b"x" * 32

    @given(src=ips, dst=ips,
           icmp_type=st.integers(min_value=0, max_value=255),
           icmp_code=st.integers(min_value=0, max_value=255),
           payload=payloads)
    def test_roundtrip_property(self, src, dst, icmp_type, icmp_code, payload):
        pkt = icmp_packet(src, dst, icmp_type, icmp_code, payload)
        assert decode_packet(encode_packet(pkt)) == pkt


class TestValidation:
    def test_bad_ip_checksum_rejected(self):
        data = bytearray(encode_packet(udp_packet(SRC, DST, 1, 2, b"a")))
        data[10] ^= 0xFF  # corrupt the IPv4 checksum
        with pytest.raises(PacketError):
            decode_packet(bytes(data))

    def test_bad_tcp_checksum_rejected(self):
        data = bytearray(encode_packet(tcp_packet(SRC, DST, 1, 2, TcpFlags.ACK, b"a")))
        data[-1] ^= 0xFF  # corrupt the payload without fixing the checksum
        with pytest.raises(PacketError):
            decode_packet(bytes(data))

    def test_truncated_rejected(self):
        data = encode_packet(udp_packet(SRC, DST, 1, 2, b"abc"))
        with pytest.raises(PacketError):
            decode_packet(data[:10])

    def test_length_mismatch_rejected(self):
        data = encode_packet(udp_packet(SRC, DST, 1, 2, b"abc"))
        with pytest.raises(PacketError):
            decode_packet(data + b"\x00")

    def test_port_range_validated(self):
        with pytest.raises(PacketError):
            Packet(src=SRC, dst=DST, protocol=Protocol.TCP, sport=70000, dport=80)


class TestPacketHelpers:
    def test_is_syn_and_synack(self):
        syn = tcp_packet(SRC, DST, 1, 2, TcpFlags.SYN)
        synack = tcp_packet(DST, SRC, 2, 1, TcpFlags.SYN | TcpFlags.ACK)
        assert syn.is_syn and not syn.is_synack
        assert synack.is_synack and not synack.is_syn

    def test_size_accounts_for_headers(self):
        assert udp_packet(SRC, DST, 1, 2, b"abcd").size == 20 + 8 + 4
        assert tcp_packet(SRC, DST, 1, 2, TcpFlags.ACK, b"ab").size == 20 + 20 + 2
        assert icmp_packet(SRC, DST, 8).size == 20 + 8

    def test_describe_mentions_endpoints(self):
        text = tcp_packet(SRC, DST, 1, 2, TcpFlags.SYN).describe()
        assert "198.51.100.10:1" in text and "203.0.113.20:2" in text
        icmp_text = icmp_packet(SRC, DST, 3, 3).describe()
        assert "ICMP" in icmp_text and "type=3" in icmp_text
