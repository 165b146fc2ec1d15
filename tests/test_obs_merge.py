"""Cross-shard telemetry merge: units and the parallel == serial invariant.

The tentpole property: a ``--workers N --telemetry`` study produces the
same counter and histogram totals as the serial run — per-sample series
sum exactly (every decision is a pure function of ``(seed, sample)``),
and world-global feed series are taken from one shard instead of summed.
"""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.study import run_study
from repro.netsim.faults import FAULT_PLANS
from repro.obs import (
    EventLog,
    MetricsRegistry,
    Span,
    Tracer,
    create_telemetry,
    fold_metrics,
    graft_span_tree,
    merge_shard_telemetry,
)
from repro.obs.merge import is_world_global
from repro.world import generate_world

from .conftest import SMOKE

SEED = 1337


# -- metric folding units -----------------------------------------------------


def test_fold_histograms_adds_bucketwise():
    worker = MetricsRegistry()
    h = worker.histogram("latency", "help", buckets=(1.0, 5.0))
    for value in (0.5, 0.7, 3.0, 99.0):
        h.observe(value)
    snapshot = worker.snapshot()

    parent = MetricsRegistry()
    parent.histogram("latency", "help", buckets=(1.0, 5.0)).observe(2.0)
    fold_metrics(parent, snapshot, kinds=("histogram",), world_global=True)
    fold_metrics(parent, snapshot, kinds=("histogram",), world_global=True)
    child = parent.get("latency").labels()
    assert child.counts == [4, 3, 2]
    assert child.count == 9
    assert child.sum == pytest.approx(2.0 + 2 * (0.5 + 0.7 + 3.0 + 99.0))
    # the snapshot round-trips exact cumulative buckets
    assert child.snapshot()["buckets"] == {"1.0": 4, "5.0": 7, "+Inf": 9}


def test_fold_histograms_creates_family_with_source_buckets():
    worker = MetricsRegistry()
    worker.histogram("h", buckets=(0.25, 2.0)).observe(1.0)
    parent = MetricsRegistry()
    fold_metrics(parent, worker.snapshot(), kinds=("histogram",),
                 world_global=True)
    assert parent.get("h").labels().buckets == (0.25, 2.0)
    assert parent.get("h").labels().count == 1


def test_world_global_series_recognized():
    assert is_world_global("feed_latency_seconds", {"feed": "virustotal"})
    assert is_world_global("pipeline_retries", {"stage": "feed"})
    assert not is_world_global("pipeline_retries", {"stage": "sandbox"})
    assert is_world_global("fault_injections", {"kind": "feed_outage"})
    assert not is_world_global("fault_injections", {"kind": "syn_drop"})
    assert not is_world_global("samples_collected", {})


def test_fold_metrics_skips_world_global_unless_elected():
    worker = MetricsRegistry()
    worker.histogram("feed_latency_seconds", labelnames=("feed",),
                     buckets=(1.0,)).labels(feed="vt").observe(0.5)
    worker.counter("pipeline_retries", labelnames=("stage",)) \
        .labels(stage="feed").inc(3)
    worker.counter("pipeline_retries", labelnames=("stage",)) \
        .labels(stage="sandbox").inc(2)
    snapshot = worker.snapshot()

    parent = MetricsRegistry()
    fold_metrics(parent, snapshot, world_global=True)   # shard 0
    fold_metrics(parent, snapshot, world_global=False)  # every other shard
    assert parent.value("pipeline_retries", stage="feed") == 3
    assert parent.value("pipeline_retries", stage="sandbox") == 4
    assert parent.get("feed_latency_seconds").labels(feed="vt").count == 1


# -- span snapshot / graft ----------------------------------------------------


def test_span_dict_round_trip():
    tracer = Tracer()
    with tracer.span("outer", day=3) as outer:
        with tracer.span("inner"):
            pass
        outer.set_attribute("late", True)
    record = tracer.tree()[0]
    restored = Span.from_dict(record)
    assert restored.name == "outer"
    assert restored.attributes == {"day": 3, "late": True}
    assert [c.name for c in restored.children] == ["inner"]
    assert restored.to_dict() == record


def test_graft_span_tree_rebuilds_under_shard_root():
    worker = Tracer()
    with worker.span("pipeline.run_day", day=0):
        with worker.span("sandbox.analyze"):
            pass
    with worker.span("pipeline.run_day", day=1):
        pass
    snapshot = worker.snapshot()

    parent = Tracer()
    with parent.span("study.pipeline") as pipeline:
        pass
    root = graft_span_tree(parent, snapshot, "shard[1]", parent=pipeline,
                           wall_seconds=1.5, shard=1, attempt=0)
    assert root.name == "shard[1]"
    assert root.attributes == {"shard": 1, "attempt": 0}
    assert root.wall_elapsed == 1.5
    assert [c.name for c in root.children] == ["pipeline.run_day",
                                               "pipeline.run_day"]
    # grafted under the parent's pipeline span, not as a new root
    assert [r.name for r in parent.roots] == ["study.pipeline"]
    assert parent.roots[0].children[0] is root
    aggregate = parent.aggregate()
    assert aggregate["pipeline.run_day"]["count"] == 2
    assert aggregate["sandbox.analyze"]["count"] == 1
    assert aggregate["shard[1]"]["count"] == 1


def test_event_absorb_tags_shard_and_seq():
    worker = EventLog()
    worker.emit("a", day=1)
    worker.emit("b", day=2)
    parent = EventLog()
    parent.emit("parent.start")
    assert parent.absorb(worker.snapshot(), shard=3) == 2
    tagged = parent.events[1:]
    assert [(r["event"], r["shard"], r["seq"]) for r in tagged] == \
        [("a", 3, 0), ("b", 3, 1)]
    assert "shard" not in parent.events[0]


def test_merge_shard_telemetry_one_call(tmp_path):
    worker = create_telemetry()
    worker.metrics.counter("samples_collected").inc(5)
    with worker.tracer.span("pipeline.run_day"):
        pass
    worker.events.emit("pipeline.day", day=0)

    parent = create_telemetry()
    merge_shard_telemetry(
        parent, 2,
        metrics_snapshot=worker.metrics.snapshot(),
        trace_snapshot=worker.tracer.snapshot(),
        events_snapshot=worker.events.snapshot(),
        wall_seconds=0.25, attempt=1)
    assert parent.metrics.value("samples_collected") == 5
    assert [r.name for r in parent.tracer.roots] == ["shard[2]"]
    assert parent.tracer.roots[0].attributes["attempt"] == 1
    assert parent.events.events[0]["shard"] == 2


# -- the invariant: merged parallel totals == serial --------------------------


def _totals(workers, config):
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    run_study(world, config=config, telemetry=telemetry, workers=workers)
    counters = {
        (family.name, tuple(sorted(labels.items()))): child.value
        for family in telemetry.metrics.families()
        if family.kind == "counter"
        for labels, child in family.series()
    }
    histograms = {
        (family.name, tuple(sorted(labels.items()))):
            (list(child.counts), child.sum, child.count)
        for family in telemetry.metrics.families()
        if family.kind == "histogram"
        for labels, child in family.series()
    }
    return counters, histograms


@pytest.fixture(scope="module", params=[None, "mild"])
def serial_totals(request):
    config = (PipelineConfig(faults=FAULT_PLANS[request.param])
              if request.param else None)
    return config, _totals(None, config)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_merged_parallel_totals_equal_serial(workers, serial_totals):
    config, (serial_counters, serial_histograms) = serial_totals
    counters, histograms = _totals(workers, config)
    assert counters == serial_counters
    assert set(histograms) == set(serial_histograms)
    for key, (counts, total, count) in histograms.items():
        serial_counts, serial_sum, serial_count = serial_histograms[key]
        assert counts == serial_counts, key
        assert count == serial_count, key
        # summation order differs between the serial and folded paths
        assert total == pytest.approx(serial_sum), key


def test_parallel_run_keeps_full_trace_and_events():
    telemetry = create_telemetry()
    world = generate_world(seed=SEED, scale=SMOKE)
    run_study(world, telemetry=telemetry, workers=2)
    aggregate = telemetry.tracer.aggregate()
    # worker-side stages survive the merge, re-rooted per shard
    assert aggregate["pipeline.run_day"]["count"] > 0
    assert aggregate["sandbox.analyze"]["count"] > 0
    assert aggregate["shard[0]"]["count"] == 1
    assert aggregate["shard[1]"]["count"] == 1
    shard_tags = {r.get("shard") for r in
                  (e for e in (dict(ev) for ev in telemetry.events.events))}
    assert {0, 1} <= shard_tags
