"""Spans recorded by the benchmark's own files around calls into the program.

:class:`SpanRecorder` replaces a callable on its owner (a module, a
class or one instance) with a wrapper that records a span around each
call and restores the original afterwards; the program's source is
never edited.  Each span keeps its name, start, end, parent span and a
request id (the study day, or the client's request number).  Spans stay
in memory until :meth:`SpanRecorder.dump` writes them once, at the end.

Parents follow the call stack of each thread.  A span opened on a
thread with nothing open (an HTTP handler thread) takes the *ambient*
span instead: the client request in flight, so server-side work nests
under the request that caused it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

__all__ = ["SpanRecorder", "Span"]

_MISSING = object()


class Span:
    __slots__ = ("id", "name", "parent", "rid", "start", "end")

    def __init__(self, id, name, parent, rid, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.rid = rid
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rid = None
        self.ambient: Span | None = None
        self._ids = itertools.count(1)
        self._stacks = threading.local()
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        parent = stack[-1] if stack else self.ambient
        span = Span(next(self._ids), name,
                    parent.id if parent is not None else None, self.rid,
                    time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def inside(self, name: str) -> bool:
        """Whether a ``name`` span is open on this thread."""
        return any(s.name == name
                   for s in getattr(self._stacks, "stack", ()))

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks.stack.pop()

    def _call(self, name, after, func, args, kwargs):
        span = self.open(name(args, kwargs) if callable(name) else name)
        try:
            result = func(*args, **kwargs)
        finally:
            self.close(span)
        if after is not None:
            after(result, args)
        return result

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``name`` may be a function of the call's ``(args, kwargs)``.
        ``after(result, args)`` runs after each call, outside the span,
        to count what the call produced.
        """
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, classmethod):
            func = raw.__func__

            def call(cls, *args, **kwargs):
                return self._call(name, after, func, (cls,) + args, kwargs)
            replacement = classmethod(call)
        elif isinstance(owner, type) and raw is not _MISSING:
            func = raw

            def replacement(*args, **kwargs):  # binds like the original
                return self._call(name, after, func, args, kwargs)
        else:
            func = getattr(owner, attr)

            def replacement(*args, **kwargs):
                return self._call(name, after, func, args, kwargs)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back the way it was."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its child spans cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                lo = max(child.start, edge)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            result[span.id] = span.duration - covered
        return result

    def dump(self, path: str, scale=None) -> None:
        """Write every span once, as JSON lines, with its self time."""
        own = self.self_times()
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "rid": s.rid, "start": round(s.start - origin, 9),
                    "end": round(s.end - origin, 9),
                    "self": round(own[s.id], 9),
                    "ref_factor": None if scale is None
                    else round(scale(s.start), 6),
                }) + "\n")

