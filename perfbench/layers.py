"""Per-layer metrics of a traced unit, from its spans and counts.

Every traced run reports the same list, :data:`PER_LAYER`; a layer the
workload never enters reads 0 (``batch-full`` has no service, cache or
shard layer — the prediction for those is "no change", and 0 states it).
Times are reference time: each span is scaled by the factor of the
timed interval it ran in.
"""

from __future__ import annotations

import statistics

from calibration import spread

__all__ = ["HANDLE", "PER_LAYER", "ROUTES", "latency_lines", "layer_metrics",
           "percentile", "route_key", "self_time_table"]

#: span-name prefix of ``ServiceApi.handle`` calls; the route key follows
HANDLE = "service.handle."

#: service routes whose handler time is reported, by metric suffix
ROUTES = ("ingest_day", "profiles_sha256", "profiles", "status", "c2",
          "c2_lifespans", "summary_ddos", "summary_exploits", "rules",
          "digest", "revalidate")

PER_LAYER = (
    ("world.generate_s", "s"),
    ("feeds.pull_s", "s"),
    ("feeds.pull_calls", "count"),
    ("feeds.entries", "count"),
    ("feeds.verify_s", "s"),
    ("feeds.verified_ratio", "ratio"),
    ("sandbox.offline_s", "s"),
    ("sandbox.offline_calls", "count"),
    ("sandbox.activated_ratio", "ratio"),
    ("sandbox.liveness_s", "s"),
    ("sandbox.live_ratio", "ratio"),
    ("sandbox.observe_s", "s"),
    ("sandbox.connected_ratio", "ratio"),
    ("analysis.ddos_detect_s", "s"),
    ("intel.ti_recheck_s", "s"),
    ("pipeline.day_p50_ms", "ms"),
    ("pipeline.day_p95_ms", "ms"),
    ("pipeline.self_s", "s"),
    ("pipeline.samples_profiled", "count"),
    ("pipeline.samples_activated", "count"),
    ("pipeline.c2_records", "count"),
    ("pipeline.ddos_records", "count"),
    ("netsim.rows_recorded", "count"),
    ("netsim.packets_built", "count"),
    ("probing.run_s", "s"),
    ("probing.observations", "count"),
    ("cache.pack_s", "s"),
    ("cache.write_s", "s"),
    ("cache.pack_bytes", "bytes"),
    ("cache.digest_s", "s"),
    ("service.checkpoint_s", "s"),
    ("service.checkpoint_bytes", "bytes"),
    *((f"service.handle_ms.{route}", "ms") for route in ROUTES),
    ("service.encode_s", "s"),
    ("service.http_floor_ms", "ms"),
    ("service.etag_hit_ratio", "ratio"),
    ("service.requests", "count"),
    ("client.ingest_p50_ms", "ms"),
    ("client.ingest_p95_ms", "ms"),
    ("client.query_p50_ms", "ms"),
    ("client.query_p99_ms", "ms"),
    ("client.revalidate_p50_ms", "ms"),
    ("parallel.start_s", "s"),
    ("parallel.join_wait_s", "s"),
    ("parallel.units", "count"),
    ("parallel.redispatches", "count"),
    ("parallel.result_bytes", "bytes"),
    ("datasets.merge_s", "s"),
    ("obs.merge_s", "s"),
    ("obs.tracing_overhead_ratio", "ratio"),
    ("bench.kernel_ms", "ms"),
    ("bench.kernel_spread", "ratio"),
)


def route_key(path: str, headers: dict | None) -> str:
    """Metric suffix for one request path (``revalidate`` if conditional)."""
    if headers and headers.get("If-None-Match"):
        return "revalidate"
    parts = [p for p in path.split("/") if p]
    if len(parts) == 2 and parts[0] == "profiles":
        return "profiles_sha256"
    return "_".join(parts) or "index"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(0, min(len(values) - 1, round(q / 100.0 * len(values)) - 1))
    return values[rank]


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder, unit, plain) -> dict:
    """Every :data:`PER_LAYER` metric for one traced unit.

    ``unit.layer`` holds the counts the wrappers collected; the client
    latencies come from ``plain``, the untraced unit of the same world.
    """
    tl = unit.timeline
    spans = recorder.spans
    by_id = {s.id: s for s in spans}
    own = recorder.self_times()

    def ref(span, seconds=None):
        return (span.duration if seconds is None else seconds) \
            * tl.factor_at(span.start)

    def under(span, name) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == name:
                return True
            parent = by_id.get(parent.parent)
        return False

    def total(name) -> float:
        return sum(ref(s) for s in spans if s.name == name)

    layer = unit.layer
    counts = unit.counts
    days = [ref(s) * 1e3 for s in spans if s.name == "pipeline.day"]
    handled: dict[str, list[float]] = {}
    handle_of = {}
    for s in spans:
        if s.name.startswith(HANDLE):
            handled.setdefault(s.name[len(HANDLE):], []).append(
                ref(s) * 1e3)
            handle_of[s.parent] = s
    floors = [ref(c, c.duration - handle_of[c.id].duration) * 1e3
              for c in spans
              if c.name == "client.request" and c.id in handle_of]
    lat = plain.latencies
    liveness = [s for s in spans if s.name == "sandbox.liveness"
                and not under(s, "probing.run")]
    return {
        "world.generate_s": total("world.generate"),
        "feeds.pull_s": total("feeds.pull"),
        "feeds.pull_calls": layer.get("feeds.pull_calls", 0),
        "feeds.entries": layer.get("feeds.entries", 0),
        "feeds.verify_s": total("feeds.verify"),
        "feeds.verified_ratio": _ratio(layer.get("feeds.verified", 0),
                                       layer.get("feeds.scans", 0)),
        "sandbox.offline_s": total("sandbox.offline"),
        "sandbox.offline_calls": layer.get("sandbox.offline_calls", 0),
        "sandbox.activated_ratio": _ratio(
            layer.get("sandbox.activated", 0),
            layer.get("sandbox.offline_calls", 0)),
        "sandbox.liveness_s": sum(ref(s) for s in liveness),
        "sandbox.live_ratio": _ratio(layer.get("sandbox.probe_live", 0),
                                     layer.get("sandbox.probe_calls", 0)),
        "sandbox.observe_s": total("sandbox.observe"),
        "sandbox.connected_ratio": _ratio(
            layer.get("sandbox.connected", 0),
            layer.get("sandbox.observe_calls", 0)),
        "analysis.ddos_detect_s": total("analysis.ddos_detect"),
        "intel.ti_recheck_s": total("intel.ti_recheck"),
        "pipeline.day_p50_ms": percentile(days, 50),
        "pipeline.day_p95_ms": percentile(days, 95),
        "pipeline.self_s": sum(
            ref(s, own[s.id]) for s in spans
            if s.name in ("pipeline.day", "pipeline.complete")),
        "pipeline.samples_profiled": counts["samples_profiled"],
        "pipeline.samples_activated": counts["samples_activated"],
        "pipeline.c2_records": counts["c2_records"],
        "pipeline.ddos_records": counts["ddos_records"],
        "netsim.rows_recorded": counts["netsim_rows"],
        "netsim.packets_built": layer.get("netsim.packets_built", 0),
        "probing.run_s": total("probing.run"),
        "probing.observations": layer.get("probing.observations", 0),
        "cache.pack_s": total("cache.pack"),
        "cache.write_s": total("cache.write"),
        "cache.pack_bytes": layer.get("cache.pack_bytes", 0),
        "cache.digest_s": total("cache.digest"),
        "service.checkpoint_s": total("service.checkpoint"),
        "service.checkpoint_bytes": counts.get("checkpoint_bytes", 0),
        **{f"service.handle_ms.{route}":
           percentile(handled.get(route, ()), 50) for route in ROUTES},
        "service.encode_s": total("service.encode"),
        "service.http_floor_ms": percentile(floors, 50),
        "service.etag_hit_ratio": _ratio(
            counts.get("etag_hits", 0),
            counts.get("etag_hits", 0) + counts.get("cacheable_reads", 0)),
        "service.requests": counts.get("requests", 0),
        "client.ingest_p50_ms": percentile(
            [r for r, _ in lat.get("ingest", ())], 50),
        "client.ingest_p95_ms": percentile(
            [r for r, _ in lat.get("ingest", ())], 95),
        "client.query_p50_ms": percentile(
            [r for r, _ in lat.get("query", ())], 50),
        "client.query_p99_ms": percentile(
            [r for r, _ in lat.get("query", ())], 99),
        "client.revalidate_p50_ms": percentile(
            [r for r, _ in lat.get("revalidate", ())], 50),
        "parallel.start_s": total("parallel.start"),
        "parallel.join_wait_s": total("parallel.join_wait"),
        "parallel.units": layer.get("parallel.units", 0),
        "parallel.redispatches": layer.get("parallel.redispatches", 0),
        "parallel.result_bytes": layer.get("parallel.result_bytes", 0),
        "datasets.merge_s": total("datasets.merge"),
        "obs.merge_s": total("obs.merge"),
        "bench.kernel_ms": statistics.median(tl.kernel_ms),
        "bench.kernel_spread": spread(tl.kernel_ms),
    }


def self_time_table(recorder, timeline) -> list[tuple]:
    """``(span name, calls, reference total s, reference self s)`` rows."""
    own = recorder.self_times()
    rows: dict[str, list] = {}
    for s in recorder.spans:
        factor = timeline.factor_at(s.start)
        row = rows.setdefault(s.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s.duration * factor
        row[2] += own[s.id] * factor
    return sorted(((name, *row) for name, row in rows.items()),
                  key=lambda r: -r[3])


def latency_lines(units) -> list[str]:
    """Client latency percentiles of the service, units pooled."""
    lines = []
    for kind, quantiles in (("ingest", (50, 95)), ("query", (50, 99)),
                            ("revalidate", (50,))):
        samples = [p for u in units for p in u.latencies.get(kind, ())]
        if not samples:
            continue
        refs = [r for r, _ in samples]
        raws = [w for _, w in samples]
        lines.append(f"{kind}_ms n={len(samples)}  " + "  ".join(
            f"p{q} {percentile(refs, q):.3f} ms (raw "
            f"{percentile(raws, q):.3f})" for q in quantiles))
    return lines
