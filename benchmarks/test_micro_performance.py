"""Micro-benchmarks of the hot substrate paths.

Not paper experiments — these track the costs that bound how far the
study scales: packet codec, pcap I/O, flow aggregation, protocol
profiling, and world generation itself.

Each bench also folds its per-round timings into a
:class:`~repro.obs.MetricsRegistry` histogram attached as
``extra_info`` so BENCH_*.json snapshots carry the latency
*distribution*, not just the mean.
"""

import gc
import io
import json
import os
import pickle
import random
import tracemalloc

from repro.botnet.protocols import mirai
from repro.botnet.protocols.base import AttackCommand
from repro.netsim.addresses import ip_to_int
from repro.netsim.capture import Capture, PcapReader, PcapWriter
from repro.netsim.flows import FlowTable
from repro.netsim.packet import TcpFlags, decode_packet, encode_packet, tcp_packet
from repro.obs import MetricsRegistry

A = ip_to_int("198.51.100.1")
B = ip_to_int("203.0.113.1")

#: per-round wall-time buckets, 10µs .. 1s (seconds)
_ROUND_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0,
)


def record_round_histogram(benchmark, name: str) -> None:
    """Attach the per-round timing distribution to the benchmark record."""
    try:
        rounds = benchmark.stats.stats.data
    except AttributeError:      # plugin disabled / bench not run
        return
    registry = MetricsRegistry()
    series = registry.histogram(
        "bench_round_seconds", "per-round benchmark wall time",
        labelnames=("bench",), buckets=_ROUND_BUCKETS,
    ).labels(bench=name)
    for value in rounds:
        series.observe(value)
    benchmark.extra_info["round_seconds_histogram"] = series.snapshot()


def _packets(count=1000):
    rng = random.Random(0)
    return [
        tcp_packet(A, B, rng.randrange(1024, 65535), 80,
                   TcpFlags.PSH | TcpFlags.ACK,
                   bytes(rng.randrange(256) for _ in range(64)),
                   seq=rng.randrange(2**32), timestamp=i * 0.001)
        for i in range(count)
    ]


def test_packet_encode_throughput(benchmark):
    packets = _packets(200)
    total = benchmark(lambda: sum(len(encode_packet(p)) for p in packets))
    assert total > 200 * 40
    record_round_histogram(benchmark, "packet_encode")


def test_packet_roundtrip_throughput(benchmark):
    packets = _packets(100)
    encoded = [encode_packet(p) for p in packets]

    def roundtrip():
        return [decode_packet(e) for e in encoded]

    decoded = benchmark(roundtrip)
    assert decoded == packets
    record_round_histogram(benchmark, "packet_roundtrip")


def test_pcap_write_read_throughput(benchmark):
    packets = _packets(500)

    def cycle():
        buf = io.BytesIO()
        PcapWriter(buf).write_all(packets)
        buf.seek(0)
        return sum(1 for _ in PcapReader(buf))

    assert benchmark(cycle) == 500
    record_round_histogram(benchmark, "pcap_write_read")


def test_flow_aggregation_throughput(benchmark):
    capture = Capture(_packets(1000))
    table = benchmark(FlowTable.from_capture, capture)
    assert len(table) >= 1
    record_round_histogram(benchmark, "flow_aggregation")


def test_mirai_profiler_throughput(benchmark):
    command = AttackCommand("udp", B, 80, 60)
    stream = (mirai.KEEPALIVE * 10 + mirai.encode_attack(command)) * 50

    commands = benchmark(mirai.extract_commands, stream)
    assert len(commands) == 50
    record_round_histogram(benchmark, "mirai_profiler")


def test_world_generation_cost(benchmark):
    from repro.world import StudyScale, generate_world

    scale = StudyScale(sample_fraction=0.05, probe_days=2)
    world = benchmark(generate_world, 123, scale)
    assert len(world.truth.all_samples) == scale.total_samples
    record_round_histogram(benchmark, "world_generation")


# -- scan burst: the batched kernel vs the un-batched reference --------------
#
# The scan path is the sandbox's hottest loop.  The un-batched reference
# below reproduces the pre-optimization behavior exactly — per-call port
# list and armed-exploit rebuilds, randrange/choice draws, one
# tcp_connect and one session per target, one eagerly constructed Packet
# per SYN/PSH — and serves as the frozen baseline the kernel
# (``Handshaker.scan``) is timed against.  Identical RNG draw order means
# both produce identical captures and identical traces.

_BURSTS = 40        # scan bursts per timed round
_BURST_SIZE = 75


def _scan_bot(seed):
    from repro.binary.config import BotConfig
    from repro.botnet.bot import Bot
    from repro.botnet.exploits import KEY_TO_INDEX

    config = BotConfig(
        family="gafgyt", c2_host="203.0.113.9", c2_port=666,
        scan_ports=[23],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"],
                     KEY_TO_INDEX["CVE-2015-2051"]],
        loader_name="8UsA.sh", downloader="203.0.113.9:80",
    )
    return Bot(config, A, random.Random(seed))


def _legacy_scan_targets(bot, count):
    from repro.botnet.bot import TELNET_PORTS
    from repro.botnet.exploits import EXPLOIT_INDEX
    from repro.netsim.addresses import is_reserved

    ports = list(bot.config.scan_ports) or list(TELNET_PORTS)
    for index in bot.config.exploit_ids:
        vuln = EXPLOIT_INDEX.get(index)
        if vuln is not None and vuln.port not in ports:
            ports.append(vuln.port)
    targets = []
    while len(targets) < count:
        address = bot.rng.randrange(0x01000000, 0xDF000000)
        if is_reserved(address):
            continue
        targets.append((address, bot.rng.choice(ports)))
    return targets


def _legacy_payload_for_port(bot, port):
    from repro.botnet.bot import TELNET_CREDENTIALS, TELNET_PORTS
    from repro.botnet.exploits import EXPLOIT_INDEX, vulnerability_for_index

    if port in TELNET_PORTS:
        user, password = bot.rng.choice(TELNET_CREDENTIALS)
        return user + b"\r\n" + password + b"\r\n", None
    armed = [
        vulnerability_for_index(index)
        for index in bot.config.exploit_ids
        if index in EXPLOIT_INDEX
    ]
    matching = [vuln for vuln in armed if vuln.port == port]
    if matching:
        vuln = bot.rng.choice(matching)
        downloader = bot.config.downloader or bot.config.c2_host
        loader = bot.config.loader_name or "bot.sh"
        return vuln.build_payload(downloader, loader), vuln
    return b"GET / HTTP/1.0\r\n\r\n", None


def _legacy_scan_burst(bot, handshaker, count):
    hits = []
    for address, port in _legacy_scan_targets(bot, count):
        session = handshaker.tcp_connect(address, port)
        if session is None:
            continue
        payload, vuln = _legacy_payload_for_port(bot, port)
        session.send(payload)
        session.recv()
        session.close()
        hits.append((address, port, payload, vuln))
    return hits


class _LegacySession:
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


class _EagerHandshaker:
    """Pre-optimization handshaker: one session per engaged victim and
    one Packet built per SYN/PSH."""

    def __init__(self, seed):
        from repro.netsim.capture import Capture

        self.rng = random.Random(seed)
        self.trace = Capture(label="handshaker")
        self.ticks = 0
        self.fanout = {}
        self.redirected_ports = set()
        self.victims = {}

    def tcp_connect(self, dst, port):
        from repro.netsim.addresses import ephemeral_port

        syn = tcp_packet(A, dst, ephemeral_port(self.rng), port, TcpFlags.SYN)
        self._stamp(syn)
        targets = self.fanout.setdefault(port, set())
        targets.add(dst)
        if port not in self.redirected_ports:
            if len(targets) > 20:
                self.redirected_ports.add(port)
            else:
                return None
        return _LegacySession(self, dst, port)

    def collect(self, target, port, payload):
        from repro.netsim.addresses import ephemeral_port

        data = tcp_packet(A, target, ephemeral_port(self.rng), port,
                          TcpFlags.PSH | TcpFlags.ACK, payload)
        self._stamp(data)
        self.victims[(target, port)] = payload

    def _stamp(self, pkt):
        self.ticks += 1
        pkt.timestamp = self.ticks * 0.005
        self.trace.add(pkt)


def _handshaker(seed):
    from repro.sandbox.handshaker import Handshaker

    return Handshaker(A, random.Random(seed), fanout_threshold=20)


def test_scan_burst_batched_speedup(benchmark):
    import time

    # correctness first: the kernel and the un-batched reference must
    # produce the same hits, identical captures and identical traces
    bot, handshaker = _scan_bot(7), _handshaker(7)
    hits = sum(handshaker.scan(bot, _BURST_SIZE) for _ in range(_BURSTS))
    legacy_bot, legacy_handshaker = _scan_bot(7), _EagerHandshaker(7)
    legacy_hits = [h for _ in range(_BURSTS)
                   for h in _legacy_scan_burst(legacy_bot, legacy_handshaker,
                                               _BURST_SIZE)]
    assert hits == len(legacy_hits) > 0
    assert handshaker.victims == legacy_handshaker.victims
    assert list(handshaker.trace) == list(legacy_handshaker.trace)
    assert handshaker.rng.getstate() == legacy_handshaker.rng.getstate()
    assert bot.rng.getstate() == legacy_bot.rng.getstate()

    def optimized():
        b, h = _scan_bot(7), _handshaker(7)
        for _ in range(_BURSTS):
            h.scan(b, _BURST_SIZE)

    def legacy():
        b, h = _scan_bot(7), _EagerHandshaker(7)
        for _ in range(_BURSTS):
            _legacy_scan_burst(b, h, _BURST_SIZE)

    benchmark(optimized)
    record_round_histogram(benchmark, "scan_burst")

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    speedup = best_of(legacy) / best_of(optimized)
    benchmark.extra_info["speedup_vs_unbatched"] = round(speedup, 2)
    assert speedup >= 2.0, (
        f"batched scan kernel only {speedup:.2f}x faster than the "
        "un-batched reference")


# -- .text filler: the accepted-word kernel vs the per-word loop -------------
#
# World generation is dominated by the random MIPS words of each sample's
# ``.text``.  ``_mips_text`` draws them in bulk and decodes them in byte
# planes (``repro.determinism``); the frozen per-word loop below is what
# it replaced.  Both make the same Mersenne Twister draws, so they return
# the same bytes and leave the generator in the same state.

_TEXT_SIZES = random.Random(3).choices(range(256, 2048), k=48)


def _per_word_mips_text(rng, words):
    from repro.binary.builder import _MIPS_OPCODES

    out = bytearray()
    for _ in range(words):
        word = rng.choice(_MIPS_OPCODES) | rng.randrange(0, 1 << 16)
        out += word.to_bytes(4, "big")
    return bytes(out)


def _text_filler(fn):
    rng = random.Random(3)
    return [fn(rng, words) for words in _TEXT_SIZES], rng.getstate()


def test_mips_text_bulk_speedup(benchmark):
    import time

    from repro.binary.builder import _mips_text

    # correctness first: same bytes, same generator state
    assert _text_filler(_mips_text) == _text_filler(_per_word_mips_text)

    benchmark(_text_filler, _mips_text)
    record_round_histogram(benchmark, "mips_text")

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _text_filler(fn)
            best = min(best, time.perf_counter() - start)
        return best

    speedup = best_of(_per_word_mips_text) / best_of(_mips_text)
    benchmark.extra_info["speedup_vs_per_word"] = round(speedup, 2)
    # measured 4.0-10.1x on CPython 3.10-3.13 (10 runs each, 2-vCPU
    # container; lowest 4.0 on 3.11 and 3.13); decoding the bulk draws
    # one word at a time in Python read 2.0-3.6x, per-word draws ~1x
    assert speedup >= 3.0, (
        f"bulk .text kernel only {speedup:.2f}x faster than the per-word "
        "loop (need >= 3.0x)")


# -- scan/observe allocation bench: columnar vs pre-columnar -----------------
#
# The columnar capture ("never build unless read") changes what one
# sandboxed sample *allocates*: recording lands rows in arrays instead of
# one Packet object per packet, and the shard hop pickles columns instead
# of an object graph.  The pre-columnar reference below reproduces the
# old recording exactly — eager Packet construction per row — and the
# workload is what a shard worker does with a trace: record the scan
# burst, answer the monitor's scalar observes, and pickle the capture
# for the parent.  Numbers are also checked against the committed
# baseline in ``baselines/alloc_scan_observe.json``.

_ALLOC_EVENTS = 5000
_ALLOC_BASELINE = os.path.join(os.path.dirname(__file__), "baselines",
                               "alloc_scan_observe.json")


def _scan_observe_events():
    rng = random.Random(11)
    events = []
    for i in range(_ALLOC_EVENTS):
        payload = rng.randbytes(48) if i % 5 == 0 else b""
        flags = TcpFlags.PSH | TcpFlags.ACK if i % 5 == 0 else TcpFlags.SYN
        events.append((A + (i % 7), rng.randrange(1, 2**32 - 1),
                       rng.randrange(49152, 65536), (23, 80, 666)[i % 3],
                       flags, payload, i * 0.005))
    return events


def _columnar_scan_observe(events):
    cap = Capture(label="scan")
    add = cap.add_tcp
    for src, dst, sport, dport, flags, payload, ts in events:
        add(src, dst, sport, dport, flags, payload, 0, 0, ts)
    cap.destinations()
    cap.total_bytes()
    cap.duration()
    return cap, pickle.loads(pickle.dumps(cap))


def _eager_scan_observe(events):
    """Frozen pre-columnar recording: one Packet object per row."""
    cap = Capture(label="scan")
    add = cap.add
    for src, dst, sport, dport, flags, payload, ts in events:
        add(tcp_packet(src, dst, sport, dport, flags, payload, timestamp=ts))
    cap.destinations()
    cap.total_bytes()
    cap.duration()
    return cap, pickle.loads(pickle.dumps(cap))


def _live_blocks(fn, *args):
    """Allocated blocks still live after ``fn`` (tracemalloc census)."""
    gc.collect()
    tracemalloc.start()
    keep = fn(*args)
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    del keep
    return sum(stat.count for stat in snapshot.statistics("filename"))


def test_scan_observe_allocations_vs_pre_columnar(benchmark):
    import time

    events = _scan_observe_events()
    # correctness first: both recorders must yield identical packets
    columnar_cap, columnar_restored = _columnar_scan_observe(events)
    eager_cap, _ = _eager_scan_observe(events)
    assert columnar_cap.packets == eager_cap.packets
    assert columnar_restored.packets == eager_cap.packets
    assert [p.timestamp for p in columnar_cap.packets] == \
        [p.timestamp for p in eager_cap.packets]

    blocks_now = _live_blocks(_columnar_scan_observe, events)
    blocks_ref = _live_blocks(_eager_scan_observe, events)

    def timed(fn):
        start = time.perf_counter()
        fn(events)
        return time.perf_counter() - start

    benchmark(lambda: _columnar_scan_observe(events))
    record_round_histogram(benchmark, "scan_observe_alloc")
    # the two loops alternate, so load drift on the machine reaches both
    # sides of the ratio alike; each side keeps its best of the repeats
    eager = columnar = float("inf")
    for _ in range(5):
        eager = min(eager, timed(_eager_scan_observe))
        columnar = min(columnar, timed(_columnar_scan_observe))
    speedup = eager / columnar
    alloc_ratio = blocks_ref / blocks_now

    benchmark.extra_info["allocation_blocks"] = blocks_now
    benchmark.extra_info["allocation_blocks_pre_columnar"] = blocks_ref
    benchmark.extra_info["allocation_ratio"] = round(alloc_ratio, 1)
    benchmark.extra_info["speedup_vs_pre_columnar"] = round(speedup, 2)

    assert alloc_ratio >= 3.0, (
        f"columnar path allocates only {alloc_ratio:.1f}x fewer blocks "
        "than the pre-columnar reference (need >= 3x)")
    assert speedup >= 2.0, (
        f"columnar scan/observe loop only {speedup:.2f}x faster than "
        "the pre-columnar reference (need >= 2x)")

    # the committed baseline pins the pre-columnar cost so a regression
    # that slows *both* paths equally still trips the absolute bound
    with open(_ALLOC_BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    committed = baseline["pre_columnar"]["allocation_blocks"]
    assert blocks_now * 3 <= committed, (
        f"live allocation census {blocks_now} is within 3x of the "
        f"committed pre-columnar baseline {committed}")


# -- the digest's canonical walk vs the generic walk it replaced -------------
#
# ``dataset_digest``, ``dataset_diff`` and ``study_fingerprint`` share
# ``repro.core.cache._canon``: one walk dispatched on exact type, with
# each dataclass's compared field names cached per class.  The frozen
# walk below is what it replaced (a ``dataclasses.fields`` call per
# object and an ``isinstance`` chain per value); ``tests/test_cache.py``
# pins the two to the same canonical text.


def _generic_canon(value):
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__type__": type(value).__name__,
            **{
                f.name: _generic_canon(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.compare
            },
        }
    if isinstance(value, dict):
        return [[_generic_canon(k), _generic_canon(v)]
                for k, v in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(_generic_canon(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_generic_canon(v) for v in value]
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, float):
        return repr(value)
    return value


def test_canonical_walk_speedup(benchmark, datasets):
    import time

    from repro.core.cache import _canon, _canon_text

    # correctness first: the same canonical text from both walks
    assert _canon_text(_canon(datasets)) == \
        _canon_text(_generic_canon(datasets))

    benchmark(_canon, datasets)
    record_round_histogram(benchmark, "canonical_walk")

    def timed(fn):
        start = time.perf_counter()
        fn(datasets)
        return time.perf_counter() - start

    # alternate the two walks so load drift reaches both sides alike
    generic = walk = float("inf")
    for _ in range(5):
        generic = min(generic, timed(_generic_canon))
        walk = min(walk, timed(_canon))
    speedup = generic / walk
    benchmark.extra_info["speedup_vs_generic_walk"] = round(speedup, 2)
    # measured 4.7x on a full-scale study (CPython 3.11, 2-vCPU
    # container); the generic walk reads ~1x
    assert speedup >= 2.0, (
        f"canonical walk only {speedup:.2f}x faster than the generic "
        "walk (need >= 2x)")
