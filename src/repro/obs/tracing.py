"""Span-based stage tracing with wall-clock *and* simulation-clock time.

The pipeline runs against a simulated Internet, so a stage has two
durations that matter: how long it took the host CPU (wall seconds) and
the simulated interval of the work it covers (sim seconds), which the
stage states with :meth:`Span.set_sim` — a feed day, a probe slot, a
live session's engine clock — so it means the same in every execution
mode.  A span that states none covers no sim time.  Spans nest into a
trace tree::

    with tracer.span("pipeline.run_day", day=day) as span:
        span.set_sim(day_start, day_start + SECONDS_PER_DAY)
        ...
        span.set_attribute("profiled", 7)

Every finished span updates a per-name aggregate (count / wall / sim);
the tree itself is kept up to ``keep_spans`` spans so a full-scale study
cannot balloon memory — the aggregate keeps counting past the cap.
"""

from __future__ import annotations

import time

__all__ = ["Span", "Tracer", "NullTracer", "NULL_SPAN"]


class Span:
    """One traced stage; usable as a context manager via the tracer.

    ``wall_start`` is the span's begin instant on ``time.perf_counter()``
    (CLOCK_MONOTONIC on Linux, comparable across processes on one host),
    ``sim_start`` the start of the simulated interval the work covers —
    both kept so a finished trace can be laid out on a timeline, not
    just summed.
    """

    def __init__(self, tracer: "Tracer | None", name: str, attributes: dict):
        self.name = name
        self.attributes = attributes
        self.children: list[Span] = []
        self.wall_elapsed = 0.0
        self.sim_elapsed = 0.0
        self.wall_start = 0.0
        self.sim_start = 0.0
        self._tracer = tracer

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_sim(self, start: float, end: float) -> None:
        """The simulated interval ``[start, end)`` the span's work covers."""
        self.sim_start = start
        self.sim_elapsed = end - start

    def __enter__(self) -> "Span":
        self.wall_start = time.perf_counter()
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.wall_elapsed = time.perf_counter() - self.wall_start
        self._tracer._pop(self)

    def to_dict(self) -> dict:
        record = {
            "name": self.name,
            "wall_start": self.wall_start,
            "wall_seconds": self.wall_elapsed,
            "sim_start": self.sim_start,
            "sim_seconds": self.sim_elapsed,
        }
        if self.attributes:
            record["attributes"] = dict(self.attributes)
        if self.children:
            record["children"] = [child.to_dict() for child in self.children]
        return record

    @classmethod
    def from_dict(cls, record: dict, tracer: "Tracer | None" = None) -> "Span":
        """Rebuild a span (and its subtree) from a :meth:`to_dict` record."""
        span = cls(tracer, record["name"], dict(record.get("attributes", {})))
        span.wall_start = record.get("wall_start", 0.0)
        span.wall_elapsed = record.get("wall_seconds", 0.0)
        span.sim_start = record.get("sim_start", 0.0)
        span.sim_elapsed = record.get("sim_seconds", 0.0)
        span.children = [cls.from_dict(child, tracer)
                         for child in record.get("children", [])]
        return span


class Tracer:
    """Builds the trace tree and the per-stage aggregate."""

    enabled = True

    def __init__(self, keep_spans: int = 10_000):
        self.keep_spans = keep_spans
        self.roots: list[Span] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._kept = 0
        self._aggregate: dict[str, list[float]] = {}  # name -> [n, wall, sim]

    def span(self, name: str, **attributes) -> Span:
        return Span(self, name, attributes)

    # -- called by Span ------------------------------------------------------

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        stat = self._aggregate.setdefault(span.name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += span.wall_elapsed
        stat[2] += span.sim_elapsed
        if self._kept >= self.keep_spans:
            self.dropped += 1
            return
        self._kept += 1
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    # -- views ---------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per-stage totals: ``{name: {count, wall_seconds, sim_seconds}}``."""
        return {
            name: {"count": n, "wall_seconds": wall, "sim_seconds": sim}
            for name, (n, wall, sim) in sorted(self._aggregate.items())
        }

    def tree(self) -> list[dict]:
        return [root.to_dict() for root in self.roots]

    # -- snapshot / restore (cross-process merge) ----------------------------

    def snapshot(self) -> dict:
        """Portable view of the tracer: plain dicts, ``json``/pickle-safe."""
        return {
            "aggregate": self.aggregate(),
            "tree": self.tree(),
            "dropped": self.dropped,
        }

    def fold_aggregate(self, aggregate: dict[str, dict[str, float]]) -> None:
        """Add another tracer's per-stage totals into this one's."""
        for name, stat in aggregate.items():
            slot = self._aggregate.setdefault(name, [0, 0.0, 0.0])
            slot[0] += stat["count"]
            slot[1] += stat["wall_seconds"]
            slot[2] += stat["sim_seconds"]

    def adopt(self, span: Span, parent: Span | None = None) -> None:
        """Attach an already-finished span (a restored subtree) to the tree.

        Bypasses the ``keep_spans`` cap — the caller is grafting a bounded,
        already-capped worker snapshot, not recording new spans.
        """
        (parent.children if parent is not None else self.roots).append(span)


class _NullSpan:
    """Shared no-op span for the disabled tracer."""

    __slots__ = ()

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_sim(self, start: float, end: float) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: hands out the shared no-op span."""

    enabled = False

    def __init__(self):
        super().__init__(keep_spans=0)

    def span(self, name: str, **attributes):
        return NULL_SPAN
