"""The columnar packet core's contract: lazy, byte-identical, picklable.

The netsim hot loop appends packets as columnar rows and only rebuilds
:class:`Packet` objects when a trace is genuinely *read* ("never build
unless read").  These tests pin the three load-bearing properties:

1. the row path reconstructs packets field-for-field identical to eager
   object construction — across seeds, protocols, and payloads;
2. laziness survives a pickle round trip (the shard transport), and the
   scalar/flow readers consume rows without materializing anything;
3. the :class:`TimeWheel` yields exactly the candidates a linear scan
   would, in the same order, and the clock skips empty slots correctly.
"""

import pickle
import random

import pytest

from repro.core.datasets import Datasets
from repro.core.parallel import ShardResult
from repro.netsim.capture import (
    COLUMN_STATS,
    Capture,
    PacketColumns,
    columnar_stats,
)
from repro.netsim.flows import FlowTable
from repro.netsim.internet import STUDY_EPOCH, TimeWheel
from repro.netsim.packet import TcpFlags, tcp_packet, udp_packet

_FLAG_CHOICES = (
    TcpFlags.SYN,
    TcpFlags.SYN | TcpFlags.ACK,
    TcpFlags.PSH | TcpFlags.ACK,
    TcpFlags.ACK,
    TcpFlags.FIN | TcpFlags.ACK,
    TcpFlags.RST,
)


def _random_traffic(seed, count=200):
    """One deterministic packet workload: (kind, fields) descriptors."""
    rng = random.Random(seed)
    events = []
    for i in range(count):
        src = rng.randrange(1, 2**32 - 1)
        dst = rng.randrange(1, 2**32 - 1)
        ts = round(STUDY_EPOCH + i * 0.005 + rng.random(), 6)
        payload = rng.randbytes(rng.randrange(0, 64))
        if rng.random() < 0.7:
            events.append(("tcp", (
                src, dst, rng.randrange(1024, 65536), rng.randrange(1, 1024),
                rng.choice(_FLAG_CHOICES), payload,
                rng.randrange(0, 2**32), rng.randrange(0, 2**32), ts,
            )))
        else:
            events.append(("udp", (
                src, dst, rng.randrange(1024, 65536), rng.randrange(1, 1024),
                payload, ts,
            )))
    return events


def _record_columnar(events, label="", cap=None):
    cap = Capture(label=label) if cap is None else cap
    for kind, fields in events:
        if kind == "tcp":
            cap.add_tcp(*fields)
        else:
            src, dst, sport, dport, payload, ts = fields
            cap.add_udp(src, dst, sport, dport, payload, timestamp=ts)
    return cap


def _record_eager(events, label=""):
    cap = Capture(label=label)
    for kind, fields in events:
        if kind == "tcp":
            src, dst, sport, dport, flags, payload, seq, ack, ts = fields
            cap.add(tcp_packet(src, dst, sport, dport, flags, payload,
                               seq=seq, ack=ack, timestamp=ts))
        else:
            src, dst, sport, dport, payload, ts = fields
            cap.add(udp_packet(src, dst, sport, dport, payload, timestamp=ts))
    return cap


def _assert_identical(columnar, eager):
    got, want = columnar.packets, eager.packets
    assert got == want            # dataclass equality (timestamp excluded)
    for g, w in zip(got, want):   # so timestamps are pinned explicitly
        assert g.timestamp == w.timestamp
        assert g.flags is w.flags or g.flags == w.flags
        assert type(g.protocol) is type(w.protocol)


# -- property: columnar == eager, across seeds --------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 1337, 20220322, 999983])
def test_columnar_read_equals_eager_construction(seed):
    events = _random_traffic(seed)
    _assert_identical(_record_columnar(events), _record_eager(events))


@pytest.mark.parametrize("seed", [3, 11, 4242, 555555, 87178291199])
def test_columnar_equivalence_survives_shard_pickle(seed):
    """Laziness and field identity survive the ShardResult transport."""
    events = _random_traffic(seed, count=120)
    cap = _record_columnar(events, label="shard")
    built_before = columnar_stats()["built"]
    result = ShardResult(shard_index=0, datasets=Datasets(),
                         counters={"trace": cap})
    restored = pickle.loads(pickle.dumps(result)).counters["trace"]
    # transport must not have forced materialization on either side
    assert columnar_stats()["built"] == built_before
    assert restored._cols is not None
    assert restored.label == "shard"
    _assert_identical(restored, _record_eager(events))


class _Segment:
    """A lazy batch of staged rows that counts how often it was built."""

    def __init__(self, rows):
        self._rows = rows
        self.built = 0

    def __len__(self):
        return len(self._rows)

    def rows(self):
        self.built += 1
        return list(self._rows)


def test_segments_build_once_on_first_read_in_recording_order():
    events = _random_traffic(6, count=90)
    staged = _record_columnar(events)._cols._staged
    segments = [_Segment(staged[10:40]), _Segment(staged[40:70])]
    rows_before = columnar_stats()["rows"]
    cap = _record_columnar(events[:10])
    for segment in segments:
        cap.add_segment(segment)
    _record_columnar(events[70:], cap=cap)
    # a segment's rows count as recorded when it is, and are not built
    assert columnar_stats()["rows"] == rows_before + 90
    assert len(cap) == 90
    assert [segment.built for segment in segments] == [0, 0]
    # the first read builds each segment once, in its recording place
    assert list(cap.iter_rows()) == list(_record_columnar(events).iter_rows())
    assert [segment.built for segment in segments] == [1, 1]
    _assert_identical(cap, _record_eager(events))
    assert [segment.built for segment in segments] == [1, 1]


def test_interleaved_objects_and_rows_keep_order():
    """Object adds flush the columnar tail; global order is preserved."""
    events = _random_traffic(5, count=60)
    cap = Capture()
    eager = _record_eager(events)
    for i, (kind, fields) in enumerate(events):
        if i % 7 == 3:  # occasionally force the object path mid-stream
            cap.add(eager.packets[i])
        elif kind == "tcp":
            cap.add_tcp(*fields)
        else:
            src, dst, sport, dport, payload, ts = fields
            cap.add_udp(src, dst, sport, dport, payload, timestamp=ts)
    _assert_identical(cap, eager)


# -- laziness: readers that must not build ------------------------------------


def test_scalar_queries_do_not_materialize():
    cap = _record_columnar(_random_traffic(2, count=80))
    built_before = columnar_stats()["built"]
    eager = _record_eager(_random_traffic(2, count=80))
    baseline = columnar_stats()["built"] - built_before
    cap.destinations()
    cap.duration()
    cap.total_bytes()
    list(cap.iter_rows())
    assert len(cap) == 80
    assert cap._cols is not None, "scalar reads must stay columnar"
    assert columnar_stats()["built"] == built_before + baseline
    assert cap.destinations() == eager.destinations()
    assert cap.total_bytes() == eager.total_bytes()
    assert cap.duration() == eager.duration()


def test_flow_table_consumes_rows_without_building():
    events = _random_traffic(9, count=150)
    cap = _record_columnar(events)
    built_before = columnar_stats()["built"]
    table = FlowTable.from_capture(cap)
    assert cap._cols is not None
    assert columnar_stats()["built"] == built_before
    eager_table = FlowTable.from_capture(_record_eager(events))
    assert set(table._flows) == set(eager_table._flows)
    for key, flow in table._flows.items():
        other = eager_table._flows[key]
        assert flow == other
        assert (flow.first_time, flow.last_time) == \
            (other.first_time, other.last_time)


def test_packets_read_materializes_once():
    cap = _record_columnar(_random_traffic(4, count=30))
    built_before = columnar_stats()["built"]
    first = cap.packets
    assert columnar_stats()["built"] == built_before + 30
    assert cap.packets is first  # second read is free
    assert columnar_stats()["built"] == built_before + 30


def test_stats_counters_exposed():
    assert set(COLUMN_STATS) == {"rows", "built"}
    before = columnar_stats()["rows"]
    PacketColumns().append_udp(1, 2, 3, 4, b"", 0.0)
    assert columnar_stats()["rows"] == before + 1


# -- the time wheel -----------------------------------------------------------


def test_wheel_matches_linear_scan():
    """items_at == the full-scan survivors, in insertion order."""
    rng = random.Random(31337)
    wheel = TimeWheel(3600.0)
    windows = []
    for i in range(300):
        start = rng.uniform(0, 100 * 3600.0)
        end = start + rng.uniform(0.0, 20 * 3600.0)
        windows.append((start, end, i))
        wheel.add_window(start, end, i)
    for _ in range(200):
        now = rng.uniform(-3600.0, 110 * 3600.0)
        want = [i for start, end, i in windows if start <= now < end]
        got = [i for i in wheel.items_at(now)
               if windows[i][0] <= now < windows[i][1]]
        assert got == want


def test_wheel_window_end_exclusive_on_boundary():
    wheel = TimeWheel(100.0)
    wheel.add_window(0.0, 200.0, "a")     # exactly slots 0 and 1
    assert "a" in wheel.items_at(199.0)
    assert wheel.items_at(200.0) == ()
    assert len(wheel) == 2


def test_wheel_rejects_unbounded_windows():
    wheel = TimeWheel(10.0)
    with pytest.raises(ValueError):
        wheel.add_window(0.0, float("inf"), "x")
    wheel.add_window(5.0, 5.0, "noop")    # empty window: silently skipped
    assert len(wheel) == 0


# -- the XL scale --------------------------------------------------------------


def test_xl_scale_registered_and_sized():
    from repro.cli import SCALES
    from repro.world import SMOKE_SCALE, XL_SCALE

    assert SCALES["xl"] is XL_SCALE
    assert XL_SCALE.total_samples >= 10 * SMOKE_SCALE.total_samples
