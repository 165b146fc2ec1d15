"""Tests for C2 servers, responsiveness model, and bot/C2 interplay."""

import random

import pytest

from repro.binary.config import BotConfig
from repro.botnet.bot import Bot
from repro.botnet.c2server import (
    C2Server,
    DownloaderHttp,
    ResponsivenessModel,
    SLOT_SECONDS,
    observed_lifespan_days,
)
from repro.botnet.families import get_family
from repro.botnet.protocols import gafgyt, irc, mirai
from repro.botnet.protocols.base import AttackCommand
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.capture import Capture
from repro.netsim.internet import Listener, Network, VirtualInternet
from repro.netsim.packet import Protocol
from repro.world.calibration import PROBED_P_OPEN, PROBED_P_STAY

BOT_IP = ip_to_int("198.51.100.77")
C2_IP = ip_to_int("203.0.113.10")
TARGET = ip_to_int("192.0.2.50")
C2_PORT = 1312

#: what each dialect's server sends a bot once its check-in registers
REGISTERED_REPLY = {
    "mirai": mirai.HANDSHAKE,
    "gafgyt": b"!* SCANNER ON\n",
    "daddyl33t": b"auth ok\r\n",
    "tsunami": irc.encode_ping(),
}


class InternetAdapter:
    """Minimal NetworkAdapter over a VirtualInternet, for tests."""

    def __init__(self, internet, bot_ip):
        self.internet = internet
        self.bot_ip = bot_ip

    def tcp_connect(self, dst, port, trace=None):
        return self.internet.tcp_connect(self.bot_ip, dst, port, trace)

    def send_datagram(self, pkt, trace=None):
        self.internet.send_datagram(pkt, trace)

    def dns_lookup(self, name, trace=None):
        response = self.internet.dns_lookup(self.bot_ip, name, trace)
        return response.addresses[0] if response.addresses else None


def build_world(family_name, schedule=None):
    network = Network()
    network.add_host(BOT_IP, "sandbox")
    host = network.add_host(C2_IP, "c2")
    server = C2Server(get_family(family_name), schedule=schedule)
    host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))
    config = BotConfig(
        family=family_name, c2_host=int_to_ip(C2_IP), c2_port=C2_PORT,
    )
    bot = Bot(config, BOT_IP, random.Random(9))
    internet = VirtualInternet(network, random.Random(8))
    return internet, server, bot, InternetAdapter(internet, BOT_IP)


class TestCheckins:
    @pytest.mark.parametrize("family", ["mirai", "gafgyt", "daddyl33t", "tsunami"])
    def test_bot_checks_in(self, family):
        _, server, bot, adapter = build_world(family)
        session = bot.connect_c2(adapter)
        assert session is not None
        assert REGISTERED_REPLY[family] in bot.server_bytes

    def test_p2p_family_has_no_c2_server(self):
        with pytest.raises(ValueError):
            C2Server(get_family("mozi"))

    def test_mirai_server_acks_handshake(self):
        _, _, bot, adapter = build_world("mirai")
        bot.connect_c2(adapter)
        assert bot.server_bytes.startswith(b"\x00\x00\x00\x01")

    def test_gafgyt_ping_pong(self):
        _, _, bot, adapter = build_world("gafgyt")
        session = bot.connect_c2(adapter)
        bot.poll_c2(session)
        assert b"PONG" in bot.server_bytes


class TestAttackDelivery:
    def attack(self, method="udp"):
        return AttackCommand(method, TARGET, 80, 60)

    @pytest.mark.parametrize(
        "family,method",
        [("mirai", "udp"), ("gafgyt", "udp"), ("daddyl33t", "hydrasyn"),
         ("tsunami", "udp")],
    )
    def test_scheduled_attack_reaches_bot(self, family, method):
        internet, server, bot, adapter = build_world(family)
        server.schedule_attack(internet.clock.now, self.attack(method))
        session = bot.connect_c2(adapter)
        commands = bot.poll_c2(session)
        assert self.attack(method) in commands

    def test_future_attack_not_delivered_early(self):
        internet, server, bot, adapter = build_world("gafgyt")
        server.schedule_attack(internet.clock.now + 3600, self.attack())
        session = bot.connect_c2(adapter)
        assert bot.poll_c2(session) == []
        internet.clock.advance(3601)
        assert self.attack() in bot.poll_c2(session)

    def test_attack_delivered_once_per_bot(self):
        internet, server, bot, adapter = build_world("gafgyt")
        server.schedule_attack(internet.clock.now, self.attack())
        session = bot.connect_c2(adapter)
        first = bot.poll_c2(session)
        second = bot.poll_c2(session)
        assert len(first) == 1
        assert len(second) == 1  # cumulative decode still sees one command
        # the server sent the command's bytes once, not once per poll
        sent = gafgyt.encode_attack(self.attack())
        assert bot.server_bytes.count(sent) == 1


class LazyChain:
    """Frozen reference: the chain as it was drawn before the model drew
    it whole at construction — one slot at a time, extended on a read."""

    def __init__(self, seed, p_open=0.22, p_stay_open=0.09, origin=0.0):
        self._rng = random.Random(seed)
        self._p_open = p_open
        self._p_stay = p_stay_open
        self._p_reopen = p_open * (1.0 - p_stay_open) / (1.0 - p_open)
        self._origin = origin
        self._states = []

    def is_open(self, now):
        slot = max(0, int((now - self._origin) // SLOT_SECONDS))
        while len(self._states) <= slot:
            if not self._states:
                self._states.append(self._rng.random() < self._p_open)
                continue
            previous = self._states[-1]
            threshold = self._p_stay if previous else self._p_reopen
            self._states.append(self._rng.random() < threshold)
        return self._states[slot]


class TestResponsivenessModel:
    @pytest.mark.parametrize("seed", [0, 7, 20220322006, 2**61 + 5])
    @pytest.mark.parametrize("params", [(0.22, 0.09),
                                        (PROBED_P_OPEN, PROBED_P_STAY)])
    @pytest.mark.parametrize("slots", [0, 1, 36, 97])
    def test_chain_matches_lazy_reference(self, seed, params, slots):
        """The chain drawn at construction equals the lazily extended
        one at every slot up to the horizon, read in any order."""
        origin = 1_614_556_800.0 + 3 * 86400.0
        horizon = origin + slots * SLOT_SECONDS + 0.5
        model = ResponsivenessModel(seed, horizon, *params, origin=origin)
        reference = LazyChain(seed, *params, origin=origin)
        times = [origin - 86400.0, horizon]
        times += [origin + i * SLOT_SECONDS + offset
                  for i in range(slots + 1) for offset in (0.0, 0.5)]
        random.Random(seed).shuffle(times)
        assert ([model.is_open(t) for t in times]
                == [reference.is_open(t) for t in times])

    def test_read_past_horizon_refused(self):
        horizon = 10 * SLOT_SECONDS
        model = ResponsivenessModel(3, horizon)
        assert model.is_open(horizon) == LazyChain(3).is_open(horizon)
        with pytest.raises(ValueError):
            model.is_open(horizon + 1.0)
        with pytest.raises(ValueError):
            model.is_open(horizon + 1000 * SLOT_SECONDS)

    def test_rarely_responds_twice_in_a_row(self):
        """Calibration target: ~91% of successes not repeated 4h later."""
        repeats = 0
        successes = 0
        for seed in range(300):
            model = ResponsivenessModel(seed, 83 * SLOT_SECONDS)
            states = [model.is_open(i * SLOT_SECONDS) for i in range(84)]
            for a, b in zip(states, states[1:]):
                if a:
                    successes += 1
                    if b:
                        repeats += 1
        assert successes > 500
        rate = repeats / successes
        assert 0.04 < rate < 0.15  # paper: 0.09

    def test_stationary_open_fraction(self):
        model = ResponsivenessModel(1, 4999 * SLOT_SECONDS)
        states = [model.is_open(i * SLOT_SECONDS) for i in range(5000)]
        fraction = sum(states) / len(states)
        assert 0.15 < fraction < 0.30  # configured pi = 0.22

    def test_deterministic_given_seed(self):
        a = ResponsivenessModel(5, 49 * SLOT_SECONDS)
        b = ResponsivenessModel(5, 49 * SLOT_SECONDS)
        times = [i * SLOT_SECONDS for i in range(50)]
        assert [a.is_open(t) for t in times] == [b.is_open(t) for t in times]

    def test_constant_within_slot(self):
        model = ResponsivenessModel(2, 11 * SLOT_SECONDS)
        base = 10 * SLOT_SECONDS
        assert model.is_open(base) == model.is_open(base + SLOT_SECONDS - 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ResponsivenessModel(0, 0.0, p_open=0.0)
        with pytest.raises(ValueError):
            ResponsivenessModel(0, 0.0, p_open=0.99, p_stay_open=0.0)
        with pytest.raises(ValueError):
            ResponsivenessModel(0, 0.0, p_stay_open=1.5)


class TestDownloader:
    def test_serves_files(self):
        network = Network()
        network.add_host(BOT_IP)
        host = network.add_host(C2_IP)
        downloader = DownloaderHttp({"8UsA.sh": b"#!/bin/sh\necho pwned\n"})
        host.bind(Listener(port=80, protocol=Protocol.TCP, service=downloader))
        internet = VirtualInternet(network, random.Random(0))
        session = internet.tcp_connect(BOT_IP, C2_IP, 80)
        session.send(b"GET /8UsA.sh HTTP/1.0\r\n\r\n")
        reply = session.recv()
        assert reply.startswith(b"HTTP/1.0 200 OK")
        # the body is the requested file, not the default loader stub
        assert reply.split(b"\r\n\r\n", 1)[1] == b"#!/bin/sh\necho pwned\n"


class TestLifespan:
    def test_days_computed(self):
        assert observed_lifespan_days(0.0, 86400.0) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            observed_lifespan_days(100.0, 50.0)
