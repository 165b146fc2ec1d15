"""The distributed runner end-to-end: wire format, worker daemon,
coordinator scheduling, and its accounting over TCP.

The expensive sections run smoke studies through the coordinator's TCP
peers — in-process :class:`WorkerServer` threads for the scheduling
tests (correctness is GIL-independent), and ``python -m repro worker``
subprocesses for the counter totals and the SIGKILL test, where a
worker must be killable mid-unit without the datasets moving.  Serial
== TCP peers for every input is a column of the equivalence matrix
(``tests/test_equivalence.py``).
"""

import dataclasses
import socket
import threading

import pytest

from repro.core.cache import dataset_diff
from repro.core.parallel import ShardedStudyRunner
from repro.core.pipeline import PipelineConfig
from repro.core.study import run_study
from repro.dist.plan import world_key
from repro.dist.wire import (
    PROTOCOL_VERSION,
    FrameDecoder,
    WireError,
    heartbeat_timeout,
    recv_frame,
    send_frame,
)
from repro.dist.worker import WorkerServer, WorldCache
from repro.netsim.faults import FAULT_PLANS
from repro.obs import create_telemetry
from repro.world import StudyScale, generate_world

from .conftest import SMOKE, phase_sim_seconds, spawn_fleet, stop_fleet

SEED = 1337
UNIT_COUNT = 8

MILD = PipelineConfig(faults=FAULT_PLANS["mild"])
# one unit straggles hard: the shape that must trigger a steal, and the
# run that must stay byte-identical when a worker is killed under it
STRAGGLER = PipelineConfig(faults=dataclasses.replace(
    FAULT_PLANS["mild"], name="mild-straggler",
    hang_shards=(2,), hang_attempts=1, hang_seconds=6.0))


@pytest.fixture
def serial_straggler(serial_reference):
    return serial_reference(SEED, SMOKE, STRAGGLER)[2]


@pytest.fixture(scope="module")
def workers():
    """Two in-process worker daemons on ephemeral ports."""
    servers = [WorkerServer().start(), WorkerServer().start()]
    yield servers
    for server in servers:
        server.shutdown()


def _peers(servers):
    return [f"{s.host}:{s.port}" for s in servers]


def _assert_exact_redispatches(manifest):
    """``redispatches`` counts exactly the placements that re-ran a
    failed unit: attempt > 0, steal twins excluded."""
    placements = manifest["extra"]["dist"]["placements"]
    expected = sum(1 for p in placements if p["attempt"] > 0
                   and not p["steal"])
    assert manifest["run"]["redispatches"] == expected
    assert manifest["extra"]["dist"]["redispatches"] == expected


# -- wire format --------------------------------------------------------------


def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        message = {"type": "task", "unit": 3, "payload": list(range(100))}
        send_frame(left, message)
        assert recv_frame(right) == message
    finally:
        left.close()
        right.close()


def test_clean_eof_is_none_midframe_eof_raises():
    left, right = socket.socketpair()
    left.close()
    try:
        assert recv_frame(right) is None    # EOF at a frame boundary
    finally:
        right.close()
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "heartbeat"})
        # deliver the header plus one payload byte, then hang up
        frame = right.recv(1 << 16)
        reader, writer = socket.socketpair()
        writer.sendall(frame[:5])
        writer.close()
        with pytest.raises(WireError):
            recv_frame(reader)
        reader.close()
    finally:
        left.close()
        right.close()


def test_corrupted_payload_is_rejected():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"type": "result", "unit": 1})
        frame = bytearray(right.recv(1 << 16))
        frame[-1] ^= 0xFF                   # flip a pickle byte
        reader, writer = socket.socketpair()
        writer.sendall(bytes(frame))
        with pytest.raises(WireError):
            recv_frame(reader)
        reader.close()
        writer.close()
    finally:
        left.close()
        right.close()


def test_decoder_reassembles_fragmented_and_coalesced_frames():
    left, right = socket.socketpair()
    try:
        for unit in range(3):
            send_frame(left, {"type": "failed", "unit": unit,
                              "error": "boom"})
        stream = right.recv(1 << 20)
    finally:
        left.close()
        right.close()
    # one byte at a time: worst-case TCP fragmentation
    decoder = FrameDecoder()
    messages = []
    for offset in range(len(stream)):
        messages.extend(decoder.feed(stream[offset:offset + 1]))
    assert [m["unit"] for m in messages] == [0, 1, 2]
    # all three frames in one recv: coalescing
    assert [m["unit"] for m in FrameDecoder().feed(stream)] == [0, 1, 2]


def test_decoder_rejects_absurd_header():
    with pytest.raises(WireError):
        FrameDecoder().feed(b"\xff\xff\xff\xff")


def test_worker_does_not_ack_a_version_1_hello(workers):
    """Version 2 task frames carry the frozen ``TaskSpec``; a worker
    never accepts a coordinator that would send the old dict."""
    server = workers[0]
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        send_frame(sock, {"type": "hello", "protocol": 1, "world": "w"})
        assert recv_frame(sock) is None          # closed, no hello-ack


def test_worker_acks_only_its_own_protocol(workers):
    """Version 3 result frames carry no ``wall``: a version 2
    coordinator would read it as 0.0 and steal sooner, so a worker
    refuses its hello.  Its own version gets a hello-ack that carries
    only the fields a coordinator reads."""
    assert PROTOCOL_VERSION == 3
    server = workers[0]
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        send_frame(sock, {"type": "hello", "protocol": 2, "world": "w"})
        assert recv_frame(sock) is None
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
        ack = recv_frame(sock)
        assert sorted(ack) == ["protocol", "type", "warm", "worker"]
        send_frame(sock, {"type": "shutdown"})


def test_coordinator_skips_a_version_1_peer(smoke_world):
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def old_worker():
        conn, _addr = listener.accept()
        with conn:
            recv_frame(conn)                      # the coordinator's hello
            send_frame(conn, {"type": "hello-ack", "protocol": 1,
                              "worker": "old", "pid": 0, "warm": []})
            recv_frame(conn)                      # until it hangs up

    thread = threading.Thread(target=old_worker, daemon=True)
    thread.start()
    runner = ShardedStudyRunner(smoke_world, peers=[f"127.0.0.1:{port}"],
                                unit_count=1)
    try:
        assert runner.connect(want=1) == 0
        assert not runner.peers[0].connected
    finally:
        runner.close()
        listener.close()
        thread.join(timeout=5)


# -- world cache --------------------------------------------------------------


def test_world_cache_leases_share_one_world():
    """A world is read-only, so every lease of a key is the one cached
    world: generated on the first lease, shared by the rest."""
    cache = WorldCache(limit=2)
    tiny = StudyScale(sample_fraction=0.02, probe_days=2,
                      observe_duration=600.0, observe_poll_interval=300.0,
                      scan_budget=60)
    first = cache.lease(7, tiny)
    assert cache.lease(7, tiny) is first
    assert (cache.hits, cache.misses) == (1, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.probe_start = 12345.0


def test_world_cache_serves_its_fork_snapshot():
    """A local slot's cache starts with the parent's world: its key is
    reported warm, and no lease of it ever generates."""
    tiny = StudyScale(sample_fraction=0.02, probe_days=2,
                      observe_duration=600.0, observe_poll_interval=300.0,
                      scan_budget=60)
    snapshot = generate_world(seed=7, scale=tiny)
    cache = WorldCache(world=snapshot)
    assert cache.keys() == [world_key(7, tiny)]
    assert cache.lease(7, tiny) is snapshot
    assert cache.lease(7, tiny) is snapshot
    assert (cache.hits, cache.misses) == (2, 0)


def test_world_cache_evicts_least_recently_used():
    cache = WorldCache(limit=2)
    tiny = StudyScale(sample_fraction=0.02, probe_days=2,
                      observe_duration=600.0, observe_poll_interval=300.0,
                      scan_budget=60)
    for seed in (1, 2, 3):
        cache.lease(seed, tiny)
    assert len(cache.keys()) == 2
    assert cache.misses == 3
    cache.lease(3, tiny)                    # still resident
    assert cache.hits == 1
    cache.lease(1, tiny)                    # evicted: regenerates
    assert cache.misses == 4


# -- TCP peers end-to-end -----------------------------------------------------


def _socket_study(peers, config, unit_count=UNIT_COUNT, **kwargs):
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    _malnet, _campaign, datasets = run_study(
        world, config=config, telemetry=telemetry, peers=peers,
        unit_count=unit_count, **kwargs)
    return datasets, telemetry.manifest


def test_socket_transport_accounting(workers):
    datasets, manifest = _socket_study(_peers(workers), None)
    assert not datasets.failed_shards
    assert manifest["run"]["transport"] == "socket"
    dist = manifest["extra"]["dist"]
    assert dist["units"] == UNIT_COUNT
    assert {p["unit"] for p in dist["placements"]} == set(range(UNIT_COUNT))
    per_worker = dist["per_worker"]
    assert len(per_worker) == 2
    assert sum(w["units_completed"] for w in per_worker.values()) \
        >= UNIT_COUNT
    # both daemons generated the world at most once; later units reuse it
    assert sum(s.worlds.hits for s in workers) >= UNIT_COUNT - 2


def test_socket_study_phases_cover_the_work(workers):
    """TCP peers give the manifest the serial run's phase sim times."""
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    run_study(world, telemetry=telemetry, peers=_peers(workers),
              unit_count=UNIT_COUNT)
    assert telemetry.manifest["run"]["transport"] == "socket"
    phase_sim_seconds(telemetry, world)


def test_socket_transport_warm_placement_under_mild_faults(workers):
    datasets, manifest = _socket_study(_peers(workers), MILD)
    assert not datasets.failed_shards
    # same (seed, scale) as the previous run: placement sees warm workers
    dist = manifest["extra"]["dist"]
    assert sum(w["warm_placements"]
               for w in dist["per_worker"].values()) >= 1


def test_socket_counter_totals_match_serial(worker_fleet):
    """Remote ShardResults carry their telemetry snapshots over the
    wire, so the merged counters equal the serial run's — dedup'd
    record counters included.

    Runs against real subprocess daemons: in-process worker threads
    share this process's capture accumulators with the concurrently
    probing parent, which double-counts world-global rows — a test
    artifact a deployed (per-process) worker cannot exhibit.
    """
    def totals(**kwargs):
        telemetry = create_telemetry()
        world = generate_world(seed=SEED, scale=SMOKE)
        run_study(world, telemetry=telemetry, **kwargs)
        return {
            (family.name, tuple(sorted(labels.items()))): child.value
            for family in telemetry.metrics.families()
            if family.kind == "counter"
            for labels, child in family.series()
        }

    assert totals() == totals(peers=worker_fleet, unit_count=UNIT_COUNT)


def test_straggling_unit_is_stolen(monkeypatch, workers, serial_straggler):
    monkeypatch.setattr("repro.dist.coordinator.MIN_STEAL_SECONDS", 0.3)
    monkeypatch.setattr("repro.dist.coordinator.STEAL_FACTOR", 0.5)
    datasets, manifest = _socket_study(
        _peers(workers), STRAGGLER, unit_count=4)
    assert not datasets.failed_shards
    diff = dataset_diff(serial_straggler, datasets)
    assert diff is None, diff
    dist = manifest["extra"]["dist"]
    assert dist["steals"] >= 1
    assert any(p["steal"] for p in dist["placements"])
    _assert_exact_redispatches(manifest)


def test_unreachable_workers_fail_the_units_not_the_run():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()                           # nobody listens here now
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    _malnet, _campaign, datasets = run_study(
        world, peers=[f"127.0.0.1:{dead_port}"], unit_count=3,
        telemetry=telemetry)
    assert sorted(datasets.failed_shards) == [0, 1, 2]
    assert datasets.profiles == []          # no unit ever ran
    manifest = telemetry.manifest
    failures = manifest["extra"]["failures"]
    assert sorted(failures) == ["0", "1", "2"]
    assert all("no reachable workers" in text for text in failures.values())
    # nothing was placed, so nothing was re-dispatched
    assert manifest["extra"]["dist"]["placements"] == []
    _assert_exact_redispatches(manifest)


def test_socket_study_survives_a_sigkilled_worker(serial_straggler):
    procs, peers = spawn_fleet(2)
    try:
        # the straggler unit hangs 6s: the study is guaranteed to still
        # be mid-wave when the axe falls
        axe = threading.Timer(2.0, procs[0].kill)
        axe.start()
        try:
            datasets, manifest = _socket_study(peers, STRAGGLER,
                                               unit_count=4)
        finally:
            axe.cancel()
        assert procs[0].wait(timeout=10) != 0   # it really died
        assert not datasets.failed_shards
        diff = dataset_diff(serial_straggler, datasets)
        assert diff is None, diff
        dist = manifest["extra"]["dist"]
        assert len(dist["lost_workers"]) >= 1
        _assert_exact_redispatches(manifest)
    finally:
        stop_fleet(procs)


# -- coordinator contract edges -----------------------------------------------


def test_start_places_the_first_wave_on_tcp_peers(workers):
    """``start()`` dials the peers and places one unit per worker, so the
    parent's probing overlaps remote units too."""
    world = generate_world(seed=SEED, scale=SMOKE)
    runner = ShardedStudyRunner(world, peers=_peers(workers), unit_count=4)
    runner.start()
    try:
        assert len(runner.placements) == 2
        assert {p["worker"] for p in runner.placements} == \
            set(_peers(workers))
    finally:
        results = runner.join()
    assert [r.shard_index for r in results] == [0, 1, 2, 3]


def test_idle_worker_is_not_lost_when_it_steals(monkeypatch, workers,
                                                serial_straggler):
    """The heartbeat clock starts at dispatch: a worker idle for longer
    than the heartbeat timeout before a steal hands it a task is not
    declared lost before its first heartbeat can arrive."""
    monkeypatch.setattr("repro.dist.wire.HEARTBEAT_MISSES", 4)
    assert heartbeat_timeout() == 2.0
    monkeypatch.setattr("repro.dist.coordinator.MIN_STEAL_SECONDS", 3.0)
    monkeypatch.setattr("repro.dist.coordinator.STEAL_FACTOR", 0.5)
    datasets, manifest = _socket_study(
        _peers(workers), STRAGGLER, unit_count=4)
    diff = dataset_diff(serial_straggler, datasets)
    assert diff is None, diff
    dist = manifest["extra"]["dist"]
    assert dist["lost_workers"] == []
    assert dist["steals"] >= 1
    _assert_exact_redispatches(manifest)


def test_reset_connection_is_a_crash_like_eof(smoke_world):
    # a local child SIGKILLed before reading what we sent resets its end
    # of the socketpair: recv raises ECONNRESET instead of returning b""
    runner = ShardedStudyRunner(smoke_world, peers=["127.0.0.1:1"],
                                unit_count=1)
    ours, theirs = socket.socketpair()
    try:
        peer = runner.peers[0]
        peer.sock = ours
        runner._assign()                        # unit 0's first try...
        theirs.close()                          # ...dies unread
        runner._pump(peer)
        (lost,) = runner.lost_workers
        assert lost["reason"] == "worker crashed (connection closed)"
        assert peer.sock is None and ours.fileno() == -1
        # the one failure path: the unit is re-queued at attempt 1
        assert list(runner.pending) == [0]
        assert runner.attempts[0] == 1
        assert runner.failures[0] == (
            "unit 0: worker crashed (connection closed) on 127.0.0.1:1")
    finally:
        ours.close()
        runner.close()
