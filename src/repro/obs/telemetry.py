"""The telemetry facade: one object bundling metrics + tracing + events.

Instrumented code takes a ``telemetry`` parameter defaulting to
:data:`NULL_TELEMETRY`, whose every operation is a no-op — the default
study run pays only attribute lookups.  Enable it with
:func:`create_telemetry` and hand the same instance to everything that
should share a registry:

    telemetry = create_telemetry()
    malnet, campaign, datasets = run_study(world, telemetry=telemetry)
    telemetry.write("out/telemetry")         # snapshot.json, events.jsonl,
                                             # metrics.prom
"""

from __future__ import annotations

import json
import os

from .events import EventLog, NullEventLog
from .exporters import snapshot as _snapshot, to_prometheus
from .manifest import write_manifest
from .metrics import MetricsRegistry, NullRegistry
from .trace_export import write_chrome_trace
from .tracing import NullTracer, Tracer

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY", "create_telemetry"]


class Telemetry:
    """Live telemetry: a registry, a tracer, and an event log.

    ``manifest`` (a plain dict, see :mod:`repro.obs.manifest`) is attached
    by the study runner; when present, :meth:`write` persists it next to
    the snapshot so every artifact directory is self-describing.
    """

    enabled = True

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventLog()
        self.manifest: dict | None = None

    def snapshot(self) -> dict:
        return _snapshot(self)

    def write(self, directory: str) -> dict[str, str]:
        """Persist the artifact directory: snapshot + events + Prometheus
        text + Chrome trace, plus the run manifest when one is attached."""
        os.makedirs(directory, exist_ok=True)
        paths = {
            "snapshot": os.path.join(directory, "snapshot.json"),
            "events": os.path.join(directory, "events.jsonl"),
            "prometheus": os.path.join(directory, "metrics.prom"),
            "trace": os.path.join(directory, "trace.json"),
        }
        with open(paths["snapshot"], "w", encoding="utf-8") as sink:
            json.dump(self.snapshot(), sink, indent=2, default=str)
            sink.write("\n")
        self.events.write_jsonl(paths["events"])
        with open(paths["prometheus"], "w", encoding="utf-8") as sink:
            sink.write(to_prometheus(self.metrics))
        write_chrome_trace(paths["trace"], self.tracer)
        if self.manifest is not None:
            paths["manifest"] = write_manifest(directory, self.manifest)
        return paths


class NullTelemetry(Telemetry):
    """Disabled telemetry: all three components are no-ops."""

    enabled = False

    def __init__(self):
        super().__init__(metrics=NullRegistry(), tracer=NullTracer(),
                         events=NullEventLog())

    def write(self, directory: str) -> dict[str, str]:
        return {}


#: Shared disabled instance — the default for every instrumented API.
NULL_TELEMETRY = NullTelemetry()


def create_telemetry(level: str = "info") -> Telemetry:
    """A fresh enabled telemetry bundle with the given event level."""
    return Telemetry(events=EventLog(level=level))
