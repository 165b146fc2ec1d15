"""The study service: incremental ingestion daemon + stdlib query API.

The batch entry point (``run_study``) computes everything and exits;
this package keeps the study *alive*.  A :class:`StudyService` wraps a
day-granular :class:`~repro.core.study.DayRunner`, ingests feed days
one at a time (explicitly via ``POST /ingest/day``, or on a simulated
clock), appends every day to a journal through
:class:`~repro.service.state.CheckpointStore`, and serves the study's
artifacts — per-binary profiles, C2 lifespan CDFs, DDoS/exploit
summaries, the monitoring alert feed, the firewall rule feed, progress,
and Prometheus metrics — over a ``http.server``-based JSON API.
Everything is stdlib-only.

Module map::

    state.py          fingerprint-keyed store of day journals
    server.py         StudyService facade, HTTP server, lifecycle
    handlers.py       route table and request handling
    serialization.py  dataclass -> JSON documents
    client.py         keep-alive client used by ``repro query``
"""

from .client import ServiceError, StudyClient
from .server import StudyService, build_server, serve_forever
from .state import CheckpointStore

__all__ = [
    "CheckpointStore",
    "ServiceError",
    "StudyClient",
    "StudyService",
    "build_server",
    "serve_forever",
]
