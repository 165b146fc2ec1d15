"""Tests for the telemetry core: metrics, tracing, events, exporters."""

import json
import re

import pytest

from repro.obs import (
    LATENCY_BUCKETS,
    NULL_TELEMETRY,
    EventLog,
    LabelCardinalityError,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    NullTracer,
    Telemetry,
    Tracer,
    create_telemetry,
    escape_label_value,
    to_prometheus,
)


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "jobs processed")
        counter.inc()
        counter.inc(4)
        assert registry.value("jobs_total") == 5.0

    def test_counters_only_go_up(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_untouched_counter_reads_zero(self):
        registry = MetricsRegistry()
        registry.counter("x")
        assert registry.value("x") == 0.0
        assert registry.value("never_registered") == 0.0


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert registry.value("depth") == 7.0


class TestLabels:
    def test_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("probes", labelnames=("outcome",))
        counter.labels(outcome="live").inc(3)
        counter.labels(outcome="dead").inc()
        assert registry.value("probes", outcome="live") == 3.0
        assert registry.value("probes", outcome="dead") == 1.0

    def test_label_mismatch_raises(self):
        counter = MetricsRegistry().counter("x", labelnames=("a",))
        with pytest.raises(MetricError):
            counter.labels(b="1")
        with pytest.raises(MetricError):
            counter.labels()

    def test_unlabelled_use_of_labelled_family_raises(self):
        counter = MetricsRegistry().counter("x", labelnames=("a",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_cardinality_cap(self):
        registry = MetricsRegistry(max_label_sets=3)
        counter = registry.counter("x", labelnames=("k",))
        for i in range(3):
            counter.labels(k=i).inc()
        with pytest.raises(LabelCardinalityError):
            counter.labels(k="overflow")
        # existing series still usable
        counter.labels(k=0).inc()

    def test_label_values_coerced_to_str(self):
        registry = MetricsRegistry()
        counter = registry.counter("x", labelnames=("port",))
        counter.labels(port=23).inc()
        counter.labels(port="23").inc()
        assert registry.value("x", port=23) == 2.0


class TestHistogram:
    def test_bucketing_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 5.0)).labels()
        for value in (0.5, 0.9, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]       # <=1, <=5, +Inf
        assert hist.cumulative() == [2, 3, 4]
        assert hist.sum == pytest.approx(104.4)
        assert hist.count == 4

    def test_boundary_is_inclusive(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0,)).labels()
        hist.observe(1.0)
        assert hist.counts == [1, 0]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().histogram("h", buckets=(5.0, 1.0))

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", labelnames=("feed",),
                                  buckets=LATENCY_BUCKETS)
        hist.labels(feed="vt").observe(90.0)
        again = json.loads(json.dumps(registry.snapshot()))
        series = again["h"]["series"][0]
        assert series["labels"] == {"feed": "vt"}
        assert series["value"]["count"] == 1


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")
        with pytest.raises(MetricError):
            registry.counter("x", labelnames=("a",))

    def test_bad_name_rejected(self):
        with pytest.raises(MetricError):
            MetricsRegistry().counter("bad name!")


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer", day=1):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert root.attributes == {"day": 1}
        assert [c.name for c in root.children] == ["inner", "inner"]

    def test_aggregate_counts_and_wall_time(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("stage"):
                pass
        agg = tracer.aggregate()
        assert agg["stage"]["count"] == 3
        assert agg["stage"]["wall_seconds"] >= 0.0

    def test_sim_interval_is_the_work_stated(self):
        tracer = Tracer()
        with tracer.span("slot") as span:
            span.set_sim(100.0, 4000.0)
        with tracer.span("untimed"):
            pass
        assert tracer.roots[0].sim_start == 100.0
        assert tracer.roots[0].sim_elapsed == pytest.approx(3900.0)
        assert tracer.roots[1].sim_elapsed == 0.0
        assert tracer.aggregate()["slot"]["sim_seconds"] == \
            pytest.approx(3900.0)

    def test_keep_spans_cap_still_aggregates(self):
        tracer = Tracer(keep_spans=2)
        for _ in range(5):
            with tracer.span("s"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped == 3
        assert tracer.aggregate()["s"]["count"] == 5

    def test_set_attribute_inside_span(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set_attribute("collected", 7)
        assert tracer.roots[0].attributes["collected"] == 7


class TestEventLog:
    def test_level_filtering(self):
        log = EventLog(level="info")
        log.debug("noise")
        log.emit("kept", day=3)
        assert [e["event"] for e in log.events] == ["kept"]
        assert log.events[0]["day"] == 3

    def test_jsonl_round_trip(self, tmp_path):
        log = EventLog()
        log.emit("a", n=1)
        log.warning("b", why="x")
        path = tmp_path / "events.jsonl"
        assert log.write_jsonl(str(path)) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["a", "b"]
        assert records[1]["level"] == "warning"

    def test_overflow_counted_not_lost_silently(self):
        log = EventLog(max_events=1)
        log.emit("a")
        log.emit("b")
        assert len(log.events) == 1
        assert log.dropped == 1


PROM_SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? '
    r'[0-9eE+.\-]+$'
)


class TestPrometheusExport:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs").inc(3)
        probes = registry.counter("probes", "probes", labelnames=("outcome",))
        probes.labels(outcome="live").inc(2)
        probes.labels(outcome="dead").inc()
        hist = registry.histogram("lat_seconds", "latency", buckets=(1.0, 5.0))
        hist.observe(0.5)
        hist.observe(9.0)
        return registry

    def test_every_line_parses(self):
        text = to_prometheus(self._registry())
        for line in text.strip().splitlines():
            if line.startswith("# HELP") or line.startswith("# TYPE"):
                continue
            assert PROM_SAMPLE_RE.match(line), line

    def test_type_headers_present(self):
        text = to_prometheus(self._registry())
        assert "# TYPE jobs_total counter" in text
        assert "# TYPE probes counter" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_histogram_exposition(self):
        text = to_prometheus(self._registry())
        assert 'lat_seconds_bucket{le="1.0"} 1' in text
        assert 'lat_seconds_bucket{le="5.0"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2' in text
        assert "lat_seconds_sum 9.5" in text
        assert "lat_seconds_count 2" in text

    def test_label_escaping(self):
        registry = MetricsRegistry()
        counter = registry.counter("weird", labelnames=("v",))
        counter.labels(v='a"b\\c\nd').inc()
        text = to_prometheus(registry)
        assert r'weird{v="a\"b\\c\nd"} 1' in text
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert PROM_SAMPLE_RE.match(line), line

    def test_escape_helper(self):
        assert escape_label_value('say "hi"\\') == r'say \"hi\"\\'

    def test_help_escaping_backslash_before_newline(self):
        from repro.obs import escape_help

        # escaping newline first would turn a literal backslash-n into a
        # double-escaped sequence; backslash must be escaped first
        assert escape_help("a\nb") == r"a\nb"
        assert escape_help("a\\nb") == r"a\\nb"
        assert escape_help("back\\slash\nline") == r"back\\slash\nline"

    def test_hostile_help_and_labels_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("hostile_total",
                         'multi\nline "help" with \\n literal').inc()
        weird = registry.counter("weird", "w", labelnames=("v",))
        for value in ("new\nline", 'quo"te', "back\\slash", '\\"\n'):
            weird.labels(v=value).inc()
        text = to_prometheus(registry)
        lines = text.strip().splitlines()
        # one physical line per record: nothing leaked a raw newline
        # (HELP + TYPE + 1 sample) + (HELP + TYPE + 4 samples)
        assert len(lines) == 3 + 6
        help_line = next(l for l in lines if l.startswith("# HELP hostile"))
        assert help_line == r'# HELP hostile_total multi\nline "help" with \\n literal'
        for line in lines:
            if not line.startswith("#"):
                assert PROM_SAMPLE_RE.match(line), line
        # the escaped label values decode back to the originals
        import re as _re

        decoded = set()
        for match in _re.finditer(r'v="((?:[^"\\]|\\.)*)"', text):
            decoded.add(match.group(1)
                        .replace(r"\n", "\n")
                        .replace(r'\"', '"')
                        .replace(r"\\", "\\"))
        assert decoded == {"new\nline", 'quo"te', "back\\slash", '\\"\n'}


class TestNullTelemetry:
    def test_everything_is_a_noop(self):
        t = NULL_TELEMETRY
        assert not t.enabled
        t.metrics.counter("x", labelnames=("a",)).labels(a=1).inc()
        t.metrics.histogram("h").observe(2.0)
        with t.tracer.span("s", day=1) as span:
            span.set_attribute("k", "v")
        t.events.emit("e", field=1)
        assert t.events.events == []
        assert t.tracer.roots == []
        assert isinstance(t.metrics, NullRegistry)
        assert isinstance(t.tracer, NullTracer)
        assert t.snapshot()["metrics"] == {}

    def test_null_write_is_a_noop(self, tmp_path):
        assert NULL_TELEMETRY.write(str(tmp_path / "nothing")) == {}
        assert not (tmp_path / "nothing").exists()


class TestTelemetryFacade:
    def test_write_produces_all_three_artifacts(self, tmp_path):
        telemetry = create_telemetry()
        telemetry.metrics.counter("x", "help").inc()
        with telemetry.tracer.span("stage"):
            pass
        telemetry.events.emit("done")
        paths = telemetry.write(str(tmp_path / "tel"))
        snapshot = json.loads(open(paths["snapshot"]).read())
        assert snapshot["metrics"]["x"]["series"][0]["value"] == 1
        assert snapshot["spans"]["stage"]["count"] == 1
        assert snapshot["events"]["recorded"] == 1
        assert "# TYPE x counter" in open(paths["prometheus"]).read()
        assert json.loads(open(paths["events"]).read())["event"] == "done"

    def test_sim_interval_survives_snapshot_and_null_span(self):
        telemetry = Telemetry()
        with telemetry.tracer.span("s") as span:
            span.set_sim(7.0, 10.0)
        (record,) = telemetry.tracer.snapshot()["tree"]
        assert (record["sim_start"], record["sim_seconds"]) == (7.0, 3.0)
        with NULL_TELEMETRY.tracer.span("s") as null_span:
            null_span.set_sim(7.0, 10.0)  # a no-op, not an error
