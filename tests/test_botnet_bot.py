"""Tests for the Bot runtime: scanning, exploitation, P2P, attacks."""

import random

import pytest

from repro.binary.config import BotConfig
from repro.botnet.bot import Bot, TELNET_CREDENTIALS, TELNET_PORTS
from repro.botnet.exploits import BY_KEY, KEY_TO_INDEX, classify_exploit
from repro.botnet.protocols import p2p
from repro.botnet.protocols.base import AttackCommand
from repro.netsim.addresses import int_to_ip, ip_to_int, is_reserved
from repro.netsim.capture import Capture
from repro.netsim.packet import Protocol, TcpFlags
from repro.sandbox.handshaker import Handshaker

BOT_IP = ip_to_int("198.51.100.77")
TARGET = ip_to_int("192.0.2.50")


class FakeSession:
    def __init__(self):
        self.sent = b""
        self.closed = False

    def send(self, data):
        self.sent += data

    def recv(self):
        return b""

    def close(self):
        self.closed = True


class RecordingAdapter:
    """Adapter that accepts every Nth TCP connection and records traffic."""

    def __init__(self, accept_every=1):
        self.accept_every = accept_every
        self.connect_attempts = []
        self.sessions = []
        self.datagrams = []
        self.dns_queries = []
        self.dns_answer = None

    def tcp_connect(self, dst, port, trace=None):
        self.connect_attempts.append((dst, port))
        if len(self.connect_attempts) % self.accept_every:
            return None
        session = FakeSession()
        self.sessions.append(((dst, port), session))
        return session

    def send_datagram(self, pkt, trace=None):
        self.datagrams.append(pkt)

    def dns_lookup(self, name, trace=None):
        self.dns_queries.append(name)
        return self.dns_answer


def mirai_bot(**overrides):
    defaults = dict(
        family="mirai", c2_host=int_to_ip(TARGET), c2_port=23,
        scan_ports=[23, 2323],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"]],
        loader_name="8UsA.sh", downloader="203.0.113.5:80",
        variant="mirai.a",
    )
    defaults.update(overrides)
    return Bot(BotConfig(**defaults), BOT_IP, random.Random(3))


class TestC2Resolution:
    def test_ip_config_resolves_directly(self):
        adapter = RecordingAdapter()
        assert mirai_bot().resolve_c2(adapter) == TARGET
        assert adapter.dns_queries == []

    def test_domain_config_uses_dns(self):
        adapter = RecordingAdapter()
        adapter.dns_answer = TARGET
        bot = mirai_bot(c2_host="cnc.example.com")
        assert bot.resolve_c2(adapter) == TARGET
        assert adapter.dns_queries == ["cnc.example.com"]

    def test_no_c2_configured(self):
        bot = Bot(BotConfig(family="mozi"), BOT_IP, random.Random(0))
        assert bot.resolve_c2(RecordingAdapter()) is None

    def test_override_target_skips_resolution(self):
        adapter = RecordingAdapter()
        bot = mirai_bot(c2_host="cnc.example.com")
        session = bot.connect_c2(adapter, override_target=(TARGET, 666))
        assert session is not None
        assert adapter.dns_queries == []
        assert adapter.connect_attempts == [(TARGET, 666)]

    def test_connect_failure_returns_none(self):
        adapter = RecordingAdapter(accept_every=10**9)
        assert mirai_bot().connect_c2(adapter) is None


class TestScanning:
    def test_targets_avoid_reserved_space(self):
        for address, _port in mirai_bot().scan_targets(200):
            assert not is_reserved(address)

    def test_targets_include_exploit_port(self):
        ports = {port for _ip, port in mirai_bot().scan_targets(500)}
        assert 8080 in ports  # GPON exploit port
        assert 23 in ports

    def test_default_ports_when_unconfigured(self):
        bot = Bot(BotConfig(family="gafgyt"), BOT_IP, random.Random(0))
        ports = {port for _ip, port in bot.scan_targets(100)}
        assert ports <= set(TELNET_PORTS)

    def test_scan_hits_only_redirected_victims(self):
        # each port's first 5 distinct IPs go nowhere; every later target
        # on it is a fake victim that gets one payload
        handshaker = Handshaker(BOT_IP, random.Random(9), fanout_threshold=5)
        hits = handshaker.scan(mirai_bot(), 50)
        flags = [row[6] for row in handshaker.trace.iter_rows()]
        assert flags.count(TcpFlags.SYN) == 50
        assert flags.count(TcpFlags.PSH | TcpFlags.ACK) == hits
        assert all(len(ips) > 5 for ips in handshaker.fanout.values())
        assert hits == 50 - 5 * len(handshaker.fanout)
        assert len(handshaker.victims) == hits

    def test_attack_payloads_pick_like_choice(self):
        # one choice() per accepting victim over the port's options, and
        # no draw at all for the bare probe
        ports = [23, 8080, 37215, 2323, 8080] * 20
        bot, rng = mirai_bot(), random.Random()
        rng.setstate(bot.rng.getstate())
        picks = bot.attack_payloads(ports)
        expected = []
        for port in ports:
            options, width = bot.payload_options(port)
            expected.append(rng.choice(options) if width else options[0])
        assert picks == expected

    def test_telnet_hit_sends_credentials(self):
        bot = mirai_bot(exploit_ids=[])
        (payload,) = bot.attack_payloads([23])
        assert classify_exploit(payload) is None
        assert any(payload.startswith(user) for user, _pw in TELNET_CREDENTIALS)

    def test_exploit_hit_sends_classifiable_payload(self):
        bot = mirai_bot()
        (payload,) = bot.attack_payloads([8080])
        assert classify_exploit(payload) is BY_KEY["CVE-2018-10561"]
        assert b"8UsA.sh" in payload

    def test_unarmed_port_gets_plain_probe(self):
        bot = mirai_bot()
        state = bot.rng.getstate()
        (payload,) = bot.attack_payloads([37215])
        assert payload.startswith(b"GET / ")
        assert bot.rng.getstate() == state      # the probe draws nothing


class TestP2p:
    def test_bootstrap_sends_dht_queries(self):
        config = BotConfig(
            family="mozi",
            p2p_bootstrap=["203.0.113.1:6881", "203.0.113.2:6881"],
        )
        bot = Bot(config, BOT_IP, random.Random(0))
        adapter = RecordingAdapter()
        assert bot.p2p_bootstrap(adapter) == 2
        assert len(adapter.datagrams) == 2
        for pkt in adapter.datagrams:
            assert pkt.protocol == Protocol.UDP
            assert p2p.is_dht_query(pkt.payload)

    def test_default_bootstrap_port(self):
        config = BotConfig(family="mozi", p2p_bootstrap=["203.0.113.1"])
        bot = Bot(config, BOT_IP, random.Random(0))
        adapter = RecordingAdapter()
        bot.p2p_bootstrap(adapter)
        assert adapter.datagrams[0].dport == p2p.MOZI_BOOTSTRAP_PORT


class TestAttackExecution:
    def test_emits_packets_through_adapter(self):
        adapter = RecordingAdapter()
        command = AttackCommand("udp", TARGET, 80, 60)
        count = mirai_bot().execute_attack(adapter, command, start_time=0.0)
        assert count == len(adapter.datagrams) > 0
        assert all(p.dst == TARGET for p in adapter.datagrams)

    def test_variant_b_rotates_source_ports(self):
        adapter_a = RecordingAdapter()
        adapter_b = RecordingAdapter()
        command = AttackCommand("udp", TARGET, 80, 60)
        mirai_bot(variant="mirai.a").execute_attack(adapter_a, command, 0.0)
        mirai_bot(variant="mirai.b").execute_attack(adapter_b, command, 0.0)
        assert len({p.sport for p in adapter_a.datagrams}) == 1
        assert len({p.sport for p in adapter_b.datagrams}) > 10

    def test_checkin_payload_unknown_for_p2p(self):
        bot = Bot(BotConfig(family="mozi"), BOT_IP, random.Random(0))
        with pytest.raises(ValueError):
            bot.checkin_payload()
