"""Tests for DNS wire format and the resolver."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import ip_to_int
from repro.netsim.dns import (
    DnsError,
    DnsQuery,
    DnsResponse,
    RCODE_NXDOMAIN,
    Resolver,
    Zones,
    decode_message,
    decode_name,
    encode_name,
)

label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
domains = st.lists(label, min_size=1, max_size=4).map(".".join)


class TestNameCodec:
    def test_roundtrip_simple(self):
        data = encode_name("cnc.example.com")
        name, offset = decode_name(data, 0)
        assert name == "cnc.example.com"
        assert offset == len(data)

    @given(domains)
    def test_roundtrip_property(self, name):
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name

    def test_trailing_dot_normalized(self):
        assert encode_name("a.b.") == encode_name("a.b")

    def test_rejects_empty(self):
        with pytest.raises(DnsError):
            encode_name("")

    def test_rejects_long_label(self):
        with pytest.raises(DnsError):
            encode_name("x" * 64 + ".com")

    def test_rejects_truncated(self):
        with pytest.raises(DnsError):
            decode_name(b"\x05abc", 0)

    def test_non_ascii_label_raises_dns_error(self):
        # regression: used to escape as UnicodeEncodeError
        with pytest.raises(DnsError):
            encode_name("cncé.example")

    def test_non_ascii_wire_label_raises_dns_error(self):
        # regression: used to escape as UnicodeDecodeError
        with pytest.raises(DnsError):
            decode_name(b"\x02\xc3\xa9\x00", 0)


class TestMessageCodec:
    def test_query_roundtrip(self):
        query = DnsQuery(0x1234, "bot.evil.example")
        decoded = decode_message(query.encode())
        assert isinstance(decoded, DnsQuery)
        assert decoded.transaction_id == 0x1234
        assert decoded.name == "bot.evil.example"

    def test_response_roundtrip(self):
        addr = ip_to_int("203.0.113.5")
        response = DnsResponse(0x42, "c2.example", [addr], ttl=60)
        decoded = decode_message(response.encode())
        assert isinstance(decoded, DnsResponse)
        assert decoded.addresses == [addr]
        assert decoded.ttl == 60
        assert not decoded.is_nxdomain

    def test_nxdomain_roundtrip(self):
        response = DnsResponse(0x42, "gone.example", rcode=RCODE_NXDOMAIN)
        decoded = decode_message(response.encode())
        assert decoded.is_nxdomain
        assert decoded.addresses == []

    def test_multiple_answers(self):
        addrs = [ip_to_int("203.0.113.5"), ip_to_int("203.0.113.6")]
        decoded = decode_message(DnsResponse(1, "multi.example", addrs).encode())
        assert decoded.addresses == addrs

    def test_short_message_rejected(self):
        with pytest.raises(DnsError):
            decode_message(b"\x00\x01")

    @given(domains, st.integers(min_value=0, max_value=0xFFFF))
    def test_query_roundtrip_property(self, name, txid):
        decoded = decode_message(DnsQuery(txid, name).encode())
        assert decoded.name == name and decoded.transaction_id == txid


class TestResolver:
    def test_register_and_resolve(self):
        zones = Zones()
        addr = ip_to_int("203.0.113.9")
        zones.register("c2.example", addr)
        resolver = Resolver(zones)
        assert resolver.resolve("c2.example") == addr
        assert resolver.resolve("C2.EXAMPLE") == addr  # case-insensitive

    def test_unknown_name(self):
        assert Resolver(Zones()).resolve("nope.example") is None

    def test_time_varying_binding(self):
        zones = Zones()
        first = ip_to_int("203.0.113.9")
        second = ip_to_int("203.0.113.10")
        zones.register("c2.example", first, since=0.0)
        zones.register("c2.example", second, since=100.0)
        zones.register("c2.example", None, since=200.0)
        resolver = Resolver(zones)
        assert resolver.resolve("c2.example", now=50) == first
        assert resolver.resolve("c2.example", now=150) == second
        assert resolver.resolve("c2.example", now=250) is None

    def test_answer_builds_wire_response(self):
        zones = Zones()
        addr = ip_to_int("203.0.113.9")
        zones.register("c2.example", addr)
        resolver = Resolver(zones)
        response = resolver.answer(DnsQuery(7, "c2.example"))
        assert response.addresses == [addr]
        missing = resolver.answer(DnsQuery(8, "other.example"))
        assert missing.is_nxdomain

    def test_lifetime_end_exclusive(self):
        """Pin the deregistration fencepost: a server online over
        [online_from, online_until) must stop resolving AT online_until."""
        zones = Zones()
        addr = ip_to_int("203.0.113.9")
        online_from, online_until = 1000.0, 5000.0
        zones.register("c2.example", addr, since=online_from)
        zones.register("c2.example", None, since=online_until)
        resolver = Resolver(zones)
        assert resolver.resolve("c2.example", now=online_from) == addr
        assert resolver.resolve("c2.example", now=online_until - 1e-6) == addr
        assert resolver.resolve("c2.example", now=online_until) is None

    def test_known_names_sorted(self):
        zones = Zones()
        zones.register("b.example", 1)
        zones.register("a.example", 2)
        assert zones.known_names() == ["a.example", "b.example"]
