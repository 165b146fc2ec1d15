"""Deterministic cross-shard telemetry merge.

A parallel study runs one real :class:`~repro.obs.metrics.MetricsRegistry`
/ :class:`~repro.obs.tracing.Tracer` / :class:`~repro.obs.events.EventLog`
per worker process and ships portable snapshots (plain dicts) back in the
:class:`~repro.core.parallel.ShardResult`.  This module folds those
snapshots into the parent's instruments so a ``--workers N`` run produces
the same-shaped, complete artifacts as a serial one:

* **counters** are summed (they count shard-local work);
* **histograms** are added bucket-wise (same buckets by construction —
  workers run the same code);
* **span trees** are re-rooted under a synthetic ``shard[i]`` span and
  grafted into the parent trace, with the per-stage aggregate folded in;
* **events** are appended in stable ``(shard, seq)`` order, each record
  tagged with its source shard.

One wrinkle keeps the totals *equal* to the serial run's instead of
merely proportional: a few series measure **world-global** activity that
every worker re-observes identically — the feed pull happens *before*
the shard filter, so feed latency histograms, feed retry counters and
feed-level fault injections fire once per worker with identical values
(pure functions of ``(seed, feed, day)``).  Summing those would
over-count by the worker width; the merge takes them from exactly one
shard instead (:data:`WORLD_GLOBAL_SERIES`).
"""

from __future__ import annotations

from .metrics import MetricError
from .tracing import Span, Tracer

__all__ = [
    "WORLD_GLOBAL_SERIES",
    "is_world_global",
    "fold_metrics",
    "graft_span_tree",
    "merge_shard_telemetry",
]

#: Series observed identically by every worker (feed pulls precede the
#: shard filter): ``(family name, required label subset or None)``.  A
#: ``None`` subset marks the whole family; a non-empty subset marks only
#: the series whose labels contain those pairs.
WORLD_GLOBAL_SERIES: tuple[tuple[str, tuple[tuple[str, str], ...] | None], ...] = (
    ("feed_latency_seconds", None),
    ("pipeline_retries", (("stage", "feed"),)),
    ("fault_injections", (("kind", "feed_outage"),)),
)


def is_world_global(name: str, labels: dict[str, str]) -> bool:
    """True when ``(name, labels)`` names a world-global series."""
    for family, subset in WORLD_GLOBAL_SERIES:
        if family != name:
            continue
        if subset is None:
            return True
        if all(labels.get(key) == value for key, value in subset):
            return True
    return False


def fold_metrics(metrics, snapshot: dict, exclude: tuple = (),
                 kinds: tuple[str, ...] = ("counter", "histogram"),
                 world_global: bool = False) -> None:
    """Fold one worker metrics snapshot into the parent registry.

    Counters sum; histograms add bucket-wise (sum/count included).
    Gauges are point-in-time readings with no cross-process meaning and
    are dropped.  ``world_global=False`` skips the series in
    :data:`WORLD_GLOBAL_SERIES` — pass True for exactly one shard so the
    merged totals equal a serial run's.
    """
    if not getattr(metrics, "enabled", True):
        return
    for name, family in snapshot.items():
        if family["type"] not in kinds or name in exclude:
            continue
        labelnames = tuple(family["labelnames"])
        if family["type"] == "counter":
            dest = metrics.counter(name, family["help"], labelnames)
            for series in family["series"]:
                if not world_global and is_world_global(name, series["labels"]):
                    continue
                if series["value"]:
                    dest.labels(**series["labels"]).inc(series["value"])
        elif family["type"] == "histogram":
            for series in family["series"]:
                if not world_global and is_world_global(name, series["labels"]):
                    continue
                _fold_histogram_series(metrics, name, family["help"],
                                       labelnames, series)


def _fold_histogram_series(metrics, name: str, help: str,
                           labelnames: tuple[str, ...], series: dict) -> None:
    value = series["value"]
    buckets_map: dict[str, int] = value["buckets"]
    uppers = [u for u in buckets_map if u != "+Inf"]
    dest = metrics.histogram(name, help, labelnames,
                             buckets=tuple(float(u) for u in uppers))
    child = dest.labels(**series["labels"])
    cumulative = list(buckets_map.values())
    if len(cumulative) != len(child.counts):
        raise MetricError(
            f"{name}: shard snapshot has {len(cumulative)} buckets, "
            f"parent histogram has {len(child.counts)}")
    previous = 0
    for index, running in enumerate(cumulative):
        child.counts[index] += running - previous
        previous = running
    child.sum += value["sum"]
    child.count += value["count"]


def graft_span_tree(tracer: Tracer, snapshot: dict, root_name: str,
                    parent: Span | None = None, wall_seconds: float = 0.0,
                    **attributes) -> Span | None:
    """Re-root a worker tracer snapshot under a new synthetic span.

    Builds a ``root_name`` span whose children are the worker's root
    spans, attaches it under ``parent`` (or as a trace root), and folds
    the worker's per-stage aggregate (and dropped-span count) into the
    parent tracer.  Returns the new root, or None for a disabled tracer.
    """
    if not getattr(tracer, "enabled", True):
        return None
    children = [Span.from_dict(record, tracer)
                for record in snapshot.get("tree", ())]
    root = Span(tracer, root_name, attributes)
    root.children = children
    root.wall_elapsed = wall_seconds or sum(
        child.wall_elapsed for child in children)
    root.sim_elapsed = sum(child.sim_elapsed for child in children)
    if children:
        root.wall_start = min(child.wall_start for child in children)
        root.sim_start = min(child.sim_start for child in children)
    tracer.adopt(root, parent)
    tracer.fold_aggregate(snapshot.get("aggregate", {}))
    tracer.fold_aggregate({root_name: {
        "count": 1, "wall_seconds": root.wall_elapsed,
        "sim_seconds": root.sim_elapsed}})
    tracer.dropped += snapshot.get("dropped", 0)
    return root


def merge_shard_telemetry(telemetry, shard_index: int, *,
                          metrics_snapshot: dict | None = None,
                          trace_snapshot: dict | None = None,
                          events_snapshot: dict | None = None,
                          parent_span: Span | None = None,
                          wall_seconds: float = 0.0, attempt: int = 0,
                          exclude_counters: tuple = (),
                          world_global: bool = False) -> None:
    """Fold one shard's telemetry snapshots into the parent bundle.

    Call once per shard in ascending shard order with
    ``world_global=True`` for exactly one of them (conventionally the
    first to report) — see :func:`fold_metrics`.
    """
    if metrics_snapshot is not None:
        fold_metrics(telemetry.metrics, metrics_snapshot,
                     exclude=exclude_counters, world_global=world_global)
    if trace_snapshot is not None:
        graft_span_tree(telemetry.tracer, trace_snapshot,
                        f"shard[{shard_index}]", parent=parent_span,
                        wall_seconds=wall_seconds, shard=shard_index,
                        attempt=attempt)
    if events_snapshot is not None:
        telemetry.events.absorb(events_snapshot, shard=shard_index)
