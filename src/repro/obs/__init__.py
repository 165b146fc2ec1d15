"""Observability: metrics, stage tracing, and structured events.

The MalNet reproduction is a year-long daily measurement loop; this
package is its nervous system.  Four pieces, all stdlib-only:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms,
  with Prometheus-style label support;
* :class:`Tracer` — ``with tracer.span("sandbox.analyze", ...)`` stage
  spans recording wall-clock *and* simulation-clock time in a trace tree;
* :class:`EventLog` — leveled structured events with a JSON-lines sink;
* exporters — Prometheus text format and a JSON snapshot.

Everything is off by default: instrumented code takes a ``telemetry``
argument defaulting to :data:`NULL_TELEMETRY`, whose operations are
no-ops.  See :func:`create_telemetry` to switch it on.
"""

from .analysis import (
    counter_series,
    describe_manifest,
    diff_runs,
    histogram_quantiles,
    histogram_series,
    load_snapshot,
    load_trace,
    timeline,
    top_spans,
)
from .events import LEVELS, EventLog, NullEventLog
from .exporters import escape_help, escape_label_value, to_prometheus
from .manifest import build_manifest, read_manifest, write_manifest
from .merge import (
    fold_metrics,
    graft_span_tree,
    merge_shard_telemetry,
)
from .metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricError,
    MetricFamily,
    MetricsRegistry,
    NullRegistry,
    quantile_from_cumulative,
)
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry, create_telemetry
from .trace_export import chrome_trace, to_trace_events, write_chrome_trace
from .tracing import NullTracer, Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "LEVELS",
    "NULL_TELEMETRY",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LabelCardinalityError",
    "MetricError",
    "MetricFamily",
    "MetricsRegistry",
    "NullEventLog",
    "NullRegistry",
    "NullTelemetry",
    "NullTracer",
    "Span",
    "Telemetry",
    "Tracer",
    "build_manifest",
    "chrome_trace",
    "counter_series",
    "create_telemetry",
    "describe_manifest",
    "diff_runs",
    "escape_help",
    "escape_label_value",
    "fold_metrics",
    "graft_span_tree",
    "histogram_quantiles",
    "histogram_series",
    "load_snapshot",
    "load_trace",
    "merge_shard_telemetry",
    "quantile_from_cumulative",
    "read_manifest",
    "timeline",
    "to_prometheus",
    "to_trace_events",
    "top_spans",
    "write_chrome_trace",
    "write_manifest",
]
