"""Tests for the handshaker (fake-victim exploit extraction) and InetSim."""

import random

import pytest

from repro.binary.config import BotConfig
from repro.botnet.bot import TELNET_CREDENTIALS, TELNET_PORTS, Bot
from repro.botnet.exploits import (
    EXPLOIT_INDEX,
    KEY_TO_INDEX,
    classify_exploit,
    vulnerability_for_index,
)
from repro.determinism import accepted_high16, draw_accepted, draw_pairs
from repro.netsim.addresses import ip_to_int, is_reserved
from repro.netsim.capture import Capture
from repro.netsim.packet import TcpFlags
from repro.sandbox.handshaker import Handshaker
from repro.sandbox.inetsim import FakeInternetAdapter

BOT_IP = ip_to_int("100.64.13.37")


def exploit_bot(seed=1):
    config = BotConfig(
        family="gafgyt", c2_host="203.0.113.9", c2_port=666,
        scan_ports=[23],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"], KEY_TO_INDEX["CVE-2015-2051"]],
        loader_name="8UsA.sh", downloader="203.0.113.9:80",
    )
    return Bot(config, BOT_IP, random.Random(seed))


class ScriptedBot:
    """Stands in for a :class:`Bot`: scans the given ``(ip, port)``
    targets in order and sends ``payload`` to every victim that engages."""

    rng = None      # draws nothing

    def __init__(self, targets, payload=b"payload"):
        self._targets = list(targets)
        self.payload = payload

    def scan_targets(self, count):
        burst, self._targets = self._targets[:count], self._targets[count:]
        return burst

    def attack_payloads(self, ports):
        return [self.payload] * len(ports)


def scan_one(handshaker, dst, port, payload):
    """One connection through the kernel: True when ``dst`` engaged."""
    return handshaker.scan(ScriptedBot([(dst, port)], payload), 1) == 1


class TestHandshaker:
    def test_redirects_after_threshold(self):
        handshaker = Handshaker(BOT_IP, random.Random(0), fanout_threshold=20)
        bot = exploit_bot()
        assert handshaker.scan(bot, 300) > 0
        assert handshaker.redirected_ports  # something crossed 20 IPs
        assert handshaker.popular_ports()

    def test_no_redirect_below_threshold(self):
        handshaker = Handshaker(BOT_IP, random.Random(0), fanout_threshold=10**6)
        bot = exploit_bot()
        assert handshaker.scan(bot, 100) == 0
        assert handshaker.victims == {}

    def test_collects_classifiable_exploits(self):
        handshaker = Handshaker(BOT_IP, random.Random(0))
        bot = exploit_bot()
        handshaker.scan(bot, 500)
        keys = {
            classify_exploit(payload).key
            for payload in handshaker.victims.values()
            if classify_exploit(payload) is not None
        }
        assert "CVE-2018-10561" in keys or "CVE-2015-2051" in keys

    def test_telnet_payloads_not_classified(self):
        handshaker = Handshaker(BOT_IP, random.Random(0))
        config = BotConfig(family="mirai", c2_host="203.0.113.9", c2_port=23,
                           scan_ports=[23])
        bot = Bot(config, BOT_IP, random.Random(2))
        handshaker.scan(bot, 200)
        for payload in handshaker.victims.values():
            assert classify_exploit(payload) is None

    def test_trace_records_syns_and_payloads(self):
        handshaker = Handshaker(BOT_IP, random.Random(0))
        handshaker.scan(exploit_bot(), 100)
        assert any(p.is_syn for p in handshaker.trace)
        times = [p.timestamp for p in handshaker.trace]
        assert times == sorted(times)

    def test_fanout_counts_distinct_ips(self):
        handshaker = Handshaker(BOT_IP, random.Random(0), fanout_threshold=3)
        targets = [(0x01010101 + i, 23) for i in range(5)]
        targets.append((0x01010101, 23))    # repeat IP
        handshaker.scan(ScriptedBot(targets), len(targets))
        assert len(handshaker.fanout[23]) == 5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            Handshaker(BOT_IP, random.Random(0), fanout_threshold=0)

    def test_scan_needs_two_random_streams(self):
        rng = random.Random(0)
        bot = Bot(exploit_bot().config, BOT_IP, rng)
        with pytest.raises(ValueError):
            Handshaker(BOT_IP, rng).scan(bot, 10)

    def test_repeat_victim_keeps_its_latest_payload(self):
        handshaker = Handshaker(BOT_IP, random.Random(0), fanout_threshold=1)
        assert not scan_one(handshaker, 0x05050505, 8080, b"first")
        assert scan_one(handshaker, 0x05050506, 8080, b"second")
        assert scan_one(handshaker, 0x05050506, 8080, b"third")
        assert handshaker.victims == {(0x05050506, 8080): b"third"}

    def test_lazy_trace_materializes_identical_packets(self):
        # the deferred trace must materialize the same packets, in the
        # same order with the same timestamps, as eager recording would
        handshaker = Handshaker(BOT_IP, random.Random(5), base_time=50.0)
        handshaker.scan(exploit_bot(seed=5), 150)
        packets = list(handshaker.trace)          # materializes
        assert len(packets) == len(handshaker.trace)
        assert all(p.src == BOT_IP for p in packets)
        times = [p.timestamp for p in packets]
        assert times == [50.0 + (i + 1) * 0.005 for i in range(len(packets))]
        # reading twice returns the same objects (no re-materialization)
        assert list(handshaker.trace) == packets
        # pcap round-trip survives the lazy path
        reloaded = Capture.from_pcap_bytes(handshaker.trace.to_pcap_bytes())
        assert [
            (p.src, p.dst, p.sport, p.dport, p.flags, p.payload)
            for p in reloaded
        ] == [
            (p.src, p.dst, p.sport, p.dport, p.flags, p.payload)
            for p in packets
        ]


# -- the scan kernel against a frozen per-target reference ---------------------
#
# Scan rows are not part of any dataset digest, so this is what pins the
# kernel: the connection-at-a-time scan it replaced, frozen below with its
# randrange/choice draws, must leave the same trace rows, captures,
# fan-out, tick count and random streams behind.


class _ReferenceSession:
    def __init__(self, handshaker, target, port):
        self._handshaker = handshaker
        self._target = target
        self._port = port
        self._received = b""
        self.closed = False

    def send(self, data):
        if self.closed:
            return
        self._received += data
        self._handshaker.collect(self._target, self._port, self._received)

    def recv(self):
        if self._port in (23, 2323) and not self.closed:
            return b"login: "
        return b""

    def close(self):
        self.closed = True


class ReferenceHandshaker:
    """One ``tcp_connect`` per target, one session per engaged victim."""

    def __init__(self, bot_ip, rng, fanout_threshold, base_time):
        self.bot_ip = bot_ip
        self.rng = rng
        self.fanout_threshold = fanout_threshold
        self.base_time = base_time
        self.trace = Capture(label="handshaker")
        self.ticks = 0
        self.fanout = {}
        self.redirected_ports = set()
        self.captures = []
        self._latest = {}

    def tcp_connect(self, dst, port):
        self._row(dst, port, TcpFlags.SYN, b"")
        targets = self.fanout.get(port)
        if targets is None:
            targets = self.fanout[port] = set()
        targets.add(dst)
        if port not in self.redirected_ports:
            if len(targets) > self.fanout_threshold:
                self.redirected_ports.add(port)
            else:
                return None
        return _ReferenceSession(self, dst, port)

    def collect(self, target, port, payload):
        self._row(target, port, TcpFlags.PSH | TcpFlags.ACK, payload)
        key = (target, port)
        existing = self._latest.get(key)
        if existing is None:
            self._latest[key] = capture = [port, target, payload]
            self.captures.append(capture)
        else:
            existing[2] = payload

    def _row(self, dst, port, flags, payload):
        self.ticks += 1
        self.trace.add_tcp(self.bot_ip, dst, self.rng.randrange(49152, 65536),
                           port, flags, payload, 0, 0,
                           self.base_time + self.ticks * 0.005)

    def popular_ports(self):
        crossed = [(len(ips), port) for port, ips in self.fanout.items()
                   if len(ips) > self.fanout_threshold]
        return [port for _count, port in sorted(crossed, reverse=True)]


def reference_scan_burst(bot, handshaker, count):
    ports = bot.scan_port_list()
    targets = []
    for _ in range(count):
        address = bot.rng.randrange(0x01000000, 0xDF000000)
        while is_reserved(address):
            address = bot.rng.randrange(0x01000000, 0xDF000000)
        targets.append((address, bot.rng.choice(ports)))
    for address, port in targets:
        session = handshaker.tcp_connect(address, port)
        if session is None:
            continue
        session.send(reference_payload(bot, port))
        session.recv()
        session.close()


def reference_payload(bot, port):
    if port in TELNET_PORTS:
        user, password = bot.rng.choice(TELNET_CREDENTIALS)
        return user + b"\r\n" + password + b"\r\n"
    matching = [vulnerability_for_index(index)
                for index in bot.config.exploit_ids
                if index in EXPLOIT_INDEX
                and vulnerability_for_index(index).port == port]
    if matching:
        vuln = bot.rng.choice(matching)
        downloader = bot.config.downloader or bot.config.c2_host
        return vuln.build_payload(downloader, bot.config.loader_name or "bot.sh")
    return b"GET / HTTP/1.0\r\n\r\n"


def victim_list(handshaker):
    """The victim mapping in the reference's ``[port, target, payload]``
    capture form, in order of first contact."""
    return [[port, target, payload]
            for (target, port), payload in handshaker.victims.items()]


# the port mixes cover choice() over 1, 2, 4 and 5 ports: one port still
# draws and rejects half of the words, five rejects three words in eight
_KERNEL_BOTS = {
    "one-port": BotConfig(family="mirai", c2_host="203.0.113.9",
                          c2_port=23, scan_ports=[23]),
    "telnet-only": BotConfig(family="mirai", c2_host="203.0.113.9",
                             c2_port=23, scan_ports=[23, 2323]),
    # 8080 and 37215 are armed, 5555 is scanned bare (GET, no draw)
    "five-port": BotConfig(
        family="mirai", c2_host="203.0.113.9", c2_port=23,
        scan_ports=[23, 2323, 5555],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"],
                     KEY_TO_INDEX["CVE-2017-17215"]],
        loader_name="8UsA.sh", downloader="203.0.113.9:80"),
    # two armed exploits share 8080, a third rides 80, and 5555 is a
    # scanned port the bot carries nothing for (bare GET, no draw)
    "armed": BotConfig(
        family="gafgyt", c2_host="203.0.113.9", c2_port=666,
        scan_ports=[23, 5555],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"],
                     KEY_TO_INDEX["CVE-2018-10562"],
                     KEY_TO_INDEX["CVE-2015-2051"]],
        loader_name="8UsA.sh", downloader="203.0.113.9:80"),
}


class TestScanKernel:
    def test_kernel_bots_cover_port_counts(self):
        counts = {kind: len(Bot(config, BOT_IP, random.Random(0))
                            .scan_port_list())
                  for kind, config in _KERNEL_BOTS.items()}
        assert counts == {"one-port": 1, "telnet-only": 2, "armed": 4,
                          "five-port": 5}

    @pytest.mark.parametrize("base_time", [0.0, 1_651_881_600.37])
    @pytest.mark.parametrize("threshold", [1, 20, 10**6])
    @pytest.mark.parametrize("kind", sorted(_KERNEL_BOTS))
    def test_scan_equals_per_target_reference(self, kind, threshold,
                                              base_time):
        config = _KERNEL_BOTS[kind]
        bot = Bot(config, BOT_IP, random.Random(11))
        kernel = Handshaker(BOT_IP, random.Random(12),
                            fanout_threshold=threshold, base_time=base_time)
        ref_bot = Bot(config, BOT_IP, random.Random(11))
        reference = ReferenceHandshaker(BOT_IP, random.Random(12),
                                        threshold, base_time)
        for count in (120, 1, 0, 200, 1500):    # state carries across bursts
            kernel.scan(bot, count)
            reference_scan_burst(ref_bot, reference, count)

        assert len(kernel.trace) == len(reference.trace)   # before a read
        assert list(kernel.trace.iter_rows()) == \
            list(reference.trace.iter_rows())
        assert victim_list(kernel) == reference.captures
        assert kernel.fanout == reference.fanout
        assert kernel.redirected_ports == reference.redirected_ports
        assert kernel.popular_ports() == reference.popular_ports()
        assert kernel.ticks == reference.ticks == len(reference.trace)
        assert kernel.rng.getstate() == reference.rng.getstate()
        assert bot.rng.getstate() == ref_bot.rng.getstate()
        if threshold == 20:
            assert kernel.victims           # the comparison saw hits
        if threshold == 10**6:
            assert not kernel.victims

    def test_repeat_victims_equal_reference_sessions(self):
        # victims contacted again keep their latest payload, as the
        # reference's per-victim capture did
        kernel = Handshaker(BOT_IP, random.Random(3), fanout_threshold=2,
                            base_time=7.0)
        reference = ReferenceHandshaker(BOT_IP, random.Random(3), 2, 7.0)
        script = [(0x01000001 + i % 4, port, bytes([65 + i]))
                  for i in range(12) for port in (80, 23)]
        for dst, port, payload in script:
            engaged = scan_one(kernel, dst, port, payload)
            session = reference.tcp_connect(dst, port)
            assert engaged == (session is not None)
            if session is not None:
                session.send(payload)
        assert list(kernel.trace.iter_rows()) == \
            list(reference.trace.iter_rows())
        assert victim_list(kernel) == reference.captures
        assert kernel.rng.getstate() == reference.rng.getstate()

    def test_randbelow_reproduces_randrange_and_choice(self):
        # the kernel draws through _randbelow; on every supported Python
        # that must be the stream randrange(a, b) and choice(seq) produce
        for a, b in ((49152, 65536), (0x01000000, 0xDF000000), (0, 1),
                     (5, 6), (0, 2**40 + 3)):
            direct, wrapped = random.Random(a ^ b), random.Random(a ^ b)
            assert [a + direct._randbelow(b - a) for _ in range(300)] == \
                [wrapped.randrange(a, b) for _ in range(300)]
            assert direct.getstate() == wrapped.getstate()
        for seq in ((7,), (1, 2), TELNET_CREDENTIALS, tuple(range(13))):
            direct, wrapped = random.Random(len(seq)), random.Random(len(seq))
            assert [seq[direct._randbelow(len(seq))] for _ in range(300)] == \
                [wrapped.choice(seq) for _ in range(300)]
            assert direct.getstate() == wrapped.getstate()
        # the shared word kernels make those draws in bulk, at the edge
        # bounds: 1 (a draw that rejects half the words), 16384 (the
        # ephemeral ports), 0xDE000000 (the scan addresses)
        never = lambda value: False  # noqa: E731
        for n in (1, 16384, 0xDE000000):
            kernel, direct = random.Random(n), random.Random(n)
            assert draw_pairs(kernel, 300, 0, n, never, range(n)) == \
                [(direct._randbelow(n), direct._randbelow(n))
                 for _ in range(300)]
            assert kernel.getstate() == direct.getstate()
        kernel, direct = random.Random(16384), random.Random(16384)
        hi, lo = accepted_high16(draw_accepted(kernel, 300))
        assert [h << 6 | l >> 2 for h, l in zip(hi, lo)] == \
            [direct._randbelow(16384) for _ in range(300)]
        assert kernel.getstate() == direct.getstate()
        # ... and 2**32, where an attempt is two words (low word first,
        # accepted iff the high word's bit 31 is clear): refused
        direct, words = random.Random(32), random.Random(32)
        expected = []
        while len(expected) < 300:
            low, high = words.getrandbits(32), words.getrandbits(32)
            if not high >> 31:
                expected.append(low)
        assert [direct._randbelow(2**32) for _ in range(300)] == expected
        assert direct.getstate() == words.getstate()
        for stop, options in ((2**32, (0,)), (1, range(2**32))):
            with pytest.raises(ValueError):
                draw_pairs(random.Random(0), 1, 0, stop, never, options)

    # The word kernels of repro.determinism rest on three CPython facts;
    # each has its own test, so a release that changes one fails here
    # under its name, not as a digest mismatch.

    def test_getrandbits_up_to_32_is_one_shifted_word(self):
        for k in (1, 4, 9, 17, 31, 32):
            bits, words = random.Random(k), random.Random(k)
            assert [bits.getrandbits(k) for _ in range(300)] == \
                [words.getrandbits(32) >> (32 - k) for _ in range(300)]
            assert bits.getstate() == words.getstate()

    def test_randbytes_is_little_endian_getrandbits(self):
        for n in (0, 1, 3, 4, 64, 1001):
            direct, wide = random.Random(n), random.Random(n)
            assert direct.randbytes(n) == \
                wide.getrandbits(8 * n).to_bytes(n, "little")
            assert direct.getstate() == wide.getstate()
        # so randbytes(4 * n) is the next n words, first word first
        direct, words = random.Random(4), random.Random(4)
        assert direct.randbytes(4 * 300) == b"".join(
            words.getrandbits(32).to_bytes(4, "little") for _ in range(300))
        assert direct.getstate() == words.getstate()

    def test_randbelow_power_of_two_accepts_iff_bit31_clear(self):
        for m in (3, 8, 16):
            direct, words = random.Random(m), random.Random(m)
            accepted = []
            while len(accepted) < 300:
                word = words.getrandbits(32)
                if not word >> 31:
                    accepted.append(word >> (31 - m))
            assert [direct._randbelow(2 ** m) for _ in range(300)] == accepted
            assert direct.getstate() == words.getstate()


class TestInetSim:
    def test_every_name_resolves_stably(self):
        fake = FakeInternetAdapter(BOT_IP, random.Random(0))
        first = fake.dns_lookup("cnc.evil.example")
        second = fake.dns_lookup("cnc.evil.example")
        other = fake.dns_lookup("other.example")
        assert first == second != other
        assert fake.dns_log == [
            "cnc.evil.example", "cnc.evil.example", "other.example"]
        assert len(fake.dns_log) == 3

    def test_every_port_accepts(self):
        fake = FakeInternetAdapter(BOT_IP, random.Random(0))
        session = fake.tcp_connect(0x01020304, 31337)
        assert session is not None
        session.send(b"hello?")
        assert session.recv().startswith(b"220")

    def test_http_ports_answer_http(self):
        fake = FakeInternetAdapter(BOT_IP, random.Random(0))
        session = fake.tcp_connect(0x01020304, 80)
        session.send(b"GET / HTTP/1.0\r\n\r\n")
        assert session.recv().startswith(b"HTTP/1.0 200 OK")

    def test_telnet_banner(self):
        fake = FakeInternetAdapter(BOT_IP, random.Random(0))
        session = fake.tcp_connect(0x01020304, 23)
        session.send(b"root\r\n")
        assert b"login:" in session.recv()

    def test_conversations_recorded(self):
        fake = FakeInternetAdapter(BOT_IP, random.Random(0))
        session = fake.tcp_connect(0x01020304, 666)
        session.send(b"BUILD MIPS\n")
        (conv,) = fake.conversations
        assert conv.client_bytes == b"BUILD MIPS\n"
        assert conv.server_bytes

    def test_capture_timestamps_increase(self):
        from repro.netsim.capture import Capture

        fake = FakeInternetAdapter(BOT_IP, random.Random(0), base_time=100.0)
        trace = Capture()
        session = fake.tcp_connect(0x01020304, 666, trace)
        session.send(b"PING\n")
        session.send(b"PING\n")
        times = [p.timestamp for p in trace]
        assert times == sorted(times)
        assert all(t > 100.0 for t in times)
