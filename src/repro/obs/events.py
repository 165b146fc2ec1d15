"""Structured event log: leveled JSON-lines records instead of prints.

Every record carries a wall timestamp, a level, the event name, and
arbitrary keyword fields (a study day's events name their ``day``)::

    events.emit("pipeline.day", day=12, collected=7)
    events.write_jsonl("telemetry/events.jsonl")

Events below the threshold level are dropped at emit time; the in-memory
buffer is capped so a year-long study cannot exhaust memory (overflow is
counted, not silently lost).
"""

from __future__ import annotations

import json
import time

__all__ = ["EventLog", "NullEventLog", "LEVELS"]

LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class EventLog:
    """Buffered structured log with level filtering and a JSONL sink."""

    enabled = True

    def __init__(self, level: str = "info", max_events: int = 100_000):
        if level not in LEVELS:
            raise ValueError(f"unknown level: {level!r}")
        self.threshold = LEVELS[level]
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0

    def emit(self, event: str, level: str = "info", **fields) -> None:
        if LEVELS.get(level, 0) < self.threshold:
            return
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        record: dict = {"ts": time.time(), "level": level, "event": event}
        record.update(fields)
        self.events.append(record)

    def debug(self, event: str, **fields) -> None:
        self.emit(event, level="debug", **fields)

    def warning(self, event: str, **fields) -> None:
        self.emit(event, level="warning", **fields)

    def error(self, event: str, **fields) -> None:
        self.emit(event, level="error", **fields)

    def write_jsonl(self, path: str) -> int:
        """Write the buffer as JSON lines; returns the record count."""
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.events:
                sink.write(json.dumps(record, default=str) + "\n")
        return len(self.events)

    # -- snapshot / restore (cross-process merge) ----------------------------

    def snapshot(self) -> dict:
        """Portable view of the log: copied records + overflow count."""
        return {"events": [dict(record) for record in self.events],
                "dropped": self.dropped}

    def absorb(self, snapshot: dict, **extra) -> int:
        """Append another log's snapshot, tagging each record with ``extra``
        plus its position (``seq``) in the source stream.

        Records keep their source order; the ``(shard, seq)`` pair the
        caller supplies/derives makes the merged stream deterministically
        sortable.  Overflow is accounted the same way as live emits.
        Returns the number of records absorbed.
        """
        absorbed = 0
        for seq, record in enumerate(snapshot.get("events", ())):
            if len(self.events) >= self.max_events:
                self.dropped += 1
                continue
            merged = dict(record)
            merged.update(extra)
            merged.setdefault("seq", seq)
            self.events.append(merged)
            absorbed += 1
        self.dropped += snapshot.get("dropped", 0)
        return absorbed


class NullEventLog(EventLog):
    """Disabled log: emit is a no-op, nothing is buffered."""

    enabled = False

    def __init__(self):
        super().__init__(max_events=0)

    def emit(self, event: str, level: str = "info", **fields) -> None:
        pass

    def absorb(self, snapshot: dict, **extra) -> int:
        return 0
