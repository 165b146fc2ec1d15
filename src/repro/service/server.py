"""The study daemon: service facade, HTTP adapter, and lifecycle.

:class:`StudyService` is the single-writer owner of one
:class:`~repro.core.study.DayRunner`.  Every mutation (ingest, finalize)
and every dataset read goes through one re-entrant lock, so the
threading HTTP server can fan requests out without ever observing a
half-ingested day.  After each completed day the service compiles the
firewall rule feed once, dates each new rule, and appends the day to
its journal through :class:`~repro.service.state.CheckpointStore`.  A
SIGTERM between two days loses nothing.  A killed process loses at
most the day in flight: the journal reader drops a torn tail.  Nothing
is fsynced, so what a power cut keeps is up to the operating system.

:func:`build_server` binds a ``ThreadingHTTPServer`` whose handler is a
thin adapter over :class:`~repro.service.handlers.ServiceApi`.  It
speaks HTTP/1.1 keep-alive: one handler thread serves every request a
client sends on its connection.  The handler sets ``TCP_NODELAY``,
because it writes a response's headers and its body in two writes, and
with Nagle's algorithm on, the body of a kept-alive response waits for
the client's delayed ACK (~40 ms).  :func:`serve_forever` adds the
daemon lifecycle: an optional simulated ingest clock, SIGTERM/SIGINT-
triggered graceful shutdown, and a final checkpoint flush on the way
out.  The server's ``server_close()`` also ends the kept-alive
connections: a handler waiting for its next request reads EOF and
exits, a request in flight still gets its whole response, and no
request is dispatched once the lifecycle has returned.
"""

from __future__ import annotations

import socket
import threading
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from ..core.cache import dataset_digest, study_fingerprint
from ..core.firewall import compile_rules
from ..core.journal import JournalError
from ..core.pipeline import PipelineConfig
from ..core.study import DayRunner
from ..obs import NULL_TELEMETRY
from ..world import generate_world
from .handlers import ServiceApi
from .serialization import encode
from .state import CheckpointStore

__all__ = ["StudyService", "build_server", "serve_forever"]


class StudyService:
    """One live study: a locked DayRunner plus checkpoint persistence.

    Construction resumes automatically: if ``checkpoint_dir`` holds a
    journal for this study's fingerprint, its replayed state is adopted
    and ingestion continues from the first unfinished day (``resumed``
    is True).  A file that is not this study's journal (foreign,
    corrupt, a pre-journal format, a different study length) is
    discarded with a warning event and the study restarts from day 0 —
    never a crash, never a silently wrong result.
    """

    def __init__(self, seed: int, scale, config: PipelineConfig | None = None,
                 telemetry=None, checkpoint_dir: str | None = None):
        self.seed = seed
        self.scale = scale
        self.config = config or PipelineConfig()
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.lock = threading.RLock()
        self.fingerprint = study_fingerprint(seed, scale, self.config)
        self.store = (CheckpointStore(checkpoint_dir)
                      if checkpoint_dir else None)
        self.resumed = False
        self._days_ingested = self.telemetry.metrics.counter(
            "service_days_ingested_total",
            "feed days executed by this service process")
        self._checkpoints = self.telemetry.metrics.counter(
            "service_checkpoints_total",
            "checkpoint saves: after each ingested day, at finalize and "
            "on shutdown (a no-op when the journal is current)")
        world = generate_world(seed=seed, scale=scale)
        self.runner = DayRunner(world=world, config=self.config,
                                telemetry=self.telemetry)
        #: (technology, text) -> the day whose ingest first produced the
        #: rule (``total_days`` for the finalize step); checkpointed, so
        #: ``/rules?since=DAY`` answers the same after a restart
        self.rule_days: dict[tuple[str, str], int] = {}
        self._maybe_resume()
        self._compile_rules()
        self.telemetry.events.emit(
            "service.start", seed=seed,
            resumed=self.resumed, next_day=self.runner.next_day,
            total_days=self.runner.total_days)

    def _maybe_resume(self) -> None:
        if self.store is None:
            return
        try:
            state = self.store.load(self.fingerprint, self.runner.total_days)
        except JournalError as exc:
            # not this study's journal: restart from day 0 rather than
            # guess; the first save replaces the file
            self.telemetry.events.emit(
                "service.checkpoint_discarded", level="warning",
                reason=str(exc))
            return
        if state is None:
            return
        self.runner.restore_state(state)
        self.rule_days = state.rule_days
        self.resumed = True

    # -- progress ----------------------------------------------------------

    @property
    def pipeline_done(self) -> bool:
        return self.runner.pipeline_done

    @property
    def finalized(self) -> bool:
        return self.runner.finalized

    @property
    def remaining_days(self) -> int:
        return self.runner.total_days - self.runner.next_day

    def status(self) -> dict:
        with self.lock:
            runner = self.runner
            return {
                "seed": self.seed,
                "sample_fraction": self.scale.sample_fraction,
                "fingerprint": self.fingerprint,
                "next_day": runner.next_day,
                "total_days": runner.total_days,
                "pipeline_done": runner.pipeline_done,
                "finalized": runner.finalized,
                "resumed": self.resumed,
                "checkpointing": self.store is not None,
                "datasets": runner.datasets.summary(),
            }

    def datasets(self):
        """The live datasets; iterate them only while holding ``lock``."""
        with self.lock:
            return self.runner.datasets

    def first_rule_day(self, endpoint: str) -> int | None:
        """Day a block rule for ``endpoint`` first shipped, matched on the
        rule's ``endpoint`` metadata: ``"1.2.3.4"`` must not claim a rule
        that blocks ``"11.2.3.45"``."""
        with self.lock:
            return min((self.rule_days[rule.technology, rule.text]
                        for rule in self.rules.rules
                        if rule.endpoint == endpoint), default=None)

    def digest(self) -> str:
        with self.lock:
            return dataset_digest(self.runner.datasets)

    def etag(self) -> str:
        """Validator for the read-mostly routes (RFC 7232 entity-tag).

        The served artifacts are a pure function of (study fingerprint,
        days ingested, finalized-or-not): the fingerprint pins (seed,
        scale, faults, config, code version), ``next_day`` advances on
        every ingest, and finalization mutates the datasets one last
        time without touching ``next_day`` — so the tag must include
        all three.
        """
        with self.lock:
            return (f'"{self.fingerprint[:16]}-{self.runner.next_day}-'
                    f'{int(self.runner.finalized)}"')

    # -- mutation ----------------------------------------------------------

    def ingest_days(self, days: int | None = 1) -> dict:
        """Execute up to ``days`` more feed days (None = all remaining),
        checkpointing after each; finalizes when the last day lands."""
        ingested = 0
        last = None
        with self.lock:
            while not self.runner.pipeline_done and (
                    days is None or ingested < days):
                last = self.runner.run_next_day()
                self._compile_rules()
                ingested += 1
                self._days_ingested.inc()
                self.telemetry.events.emit(
                    "service.day_ingested", level="debug", **last)
                self._checkpoint()
            if self.runner.pipeline_done and not self.runner.finalized:
                self._finalize_locked()
            return {
                "ingested": ingested,
                "last_day": None if last is None else last["day"],
                "next_day": self.runner.next_day,
                "total_days": self.runner.total_days,
                "pipeline_done": self.runner.pipeline_done,
                "finalized": self.runner.finalized,
            }

    def finalize(self) -> dict:
        """TI re-query + probing campaign (idempotent)."""
        with self.lock:
            already = self.runner.finalized
            self._finalize_locked()
            return {
                "finalized": True,
                "already_finalized": already,
                "dataset_digest": dataset_digest(self.runner.datasets),
            }

    def _finalize_locked(self) -> None:
        if not self.runner.finalized:
            self.runner.finalize()
            self._compile_rules()
            self._checkpoint()
            self.telemetry.events.emit("service.finalized")

    def _compile_rules(self) -> None:
        """Compile the rule feed ``/rules`` serves until the next ingest,
        and date the rules it holds for the first time."""
        runner = self.runner
        day = runner.total_days if runner.finalized else runner.next_day - 1
        self.rules = compile_rules(runner.datasets)
        for rule in self.rules.rules:
            self.rule_days.setdefault((rule.technology, rule.text), day)

    # -- persistence -------------------------------------------------------

    def _checkpoint(self) -> None:
        """Journal the days ingested since the last checkpoint, or
        compact the journal once the study is finalized."""
        if self.store is None:
            return
        self.store.save(self.fingerprint, self.runner.state(self.rule_days))
        self._checkpoints.inc()

    def flush(self) -> None:
        """Journal anything not yet journaled (shutdown path)."""
        with self.lock:
            self._checkpoint()


# -- HTTP adapter ------------------------------------------------------------

#: largest request body read; the only body the API takes is the small
#: ingest JSON, so anything bigger is refused with 413 unread
MAX_BODY_BYTES = 1 << 16


class _RequestHandler(BaseHTTPRequestHandler):
    """Socket plumbing around :meth:`ServiceApi.handle` — nothing more."""

    #: a weak proxy to the server's ServiceApi, set by build_server on
    #: the subclass
    api: ServiceApi = None
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # _send writes headers, then body

    def _respond(self) -> None:
        if self.server.closed:
            # server_close()'s SHUT_RD wakes a handler waiting for its
            # next request, but bytes that arrive before it runs are
            # still read: hang up on them undispatched
            self.close_connection = True
            return
        # never dispatch on a Content-Length that is not a plain count, is
        # over the cap, or promises more than the body that arrived; the
        # refusal hangs up, so an unread body is not parsed as a request
        header = self.headers.get("Content-Length") or "0"
        length = int(header) if header.isascii() and header.isdigit() else -1
        body = self.rfile.read(length) if 0 < length <= MAX_BODY_BYTES \
            else b""
        if length < 0 or length > MAX_BODY_BYTES or len(body) < length:
            return self._send(
                413 if length > MAX_BODY_BYTES else 400, "application/json",
                encode({"error": f"Content-Length {header!r}: not a byte "
                                 f"count, over {MAX_BODY_BYTES}, or past "
                                 "the end of the body"}),
                {"Connection": "close"})
        split = urlsplit(self.path)
        query = dict(parse_qsl(split.query))
        self._send(*self.api.handle(
            self.command, split.path, query, body, dict(self.headers)))

    def _send(self, status: int, content_type: str, payload: bytes,
              extra_headers: dict) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in extra_headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format, *args):  # quiet: events go to telemetry
        pass


class _Server(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` whose ``server_close()`` also ends the
    kept-alive connections, so no request is dispatched after it."""

    daemon_threads = True  # a handler never holds up server_close() or exit

    def __init__(self, *args, **kwargs):
        #: the ServiceApi the handlers dispatch to, set by build_server
        self.api = None
        #: set by server_close(); a request read after it is hung up on
        self.closed = False
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address):
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self):
        # a handler blocked reading its next request line reads EOF and
        # exits; one that is answering a request still writes the reply
        with self._connections_lock:
            self.closed = True
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # its handler closed it meanwhile
                pass
        super().server_close()


def build_server(service: StudyService, host: str = "127.0.0.1",
                 port: int = 0) -> ThreadingHTTPServer:
    """A bound (not yet serving) HTTP server over ``service``.

    ``port=0`` binds an ephemeral port; read the real one from
    ``server.server_address[1]``.  The server owns the
    :class:`ServiceApi`; its handler class, like every class a
    reference cycle, reaches it through a weak proxy, so a server that
    is shut down, closed and dropped frees its study by reference
    counting instead of waiting for the cycle collector.
    """
    api = ServiceApi(service)
    handler = type("BoundRequestHandler", (_RequestHandler,),
                   {"api": weakref.proxy(api)})
    server = _Server((host, port), handler)
    server.api = api
    return server


# -- daemon lifecycle --------------------------------------------------------


class _IngestClock(threading.Thread):
    """Simulated feed clock: one day per tick until the study finishes."""

    def __init__(self, service: StudyService, interval: float):
        super().__init__(name="ingest-clock", daemon=True)
        self.service = service
        self.interval = interval
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            if self.service.pipeline_done and self.service.finalized:
                return
            self.service.ingest_days(1)

    def stop(self) -> None:
        self.stop_event.set()


def serve_forever(server: ThreadingHTTPServer, service: StudyService,
                  auto_ingest: float | None = None,
                  ready=None) -> None:
    """Run the daemon until SIGTERM/SIGINT, then shut down gracefully.

    Graceful means: stop the ingest clock, hang up the idle kept-alive
    connections, let in-flight requests finish, and flush a final
    checkpoint — so ``kill -TERM`` followed by a restart resumes from
    the last *completed* day with nothing lost.
    Signal handlers are installed only when running on the main thread
    (tests drive shutdown by calling ``server.shutdown()`` directly);
    ``ready`` is called once they are, so a caller can announce the
    address only when a SIGTERM is already survivable.
    """
    clock = None
    if auto_ingest is not None:
        clock = _IngestClock(service, auto_ingest)
        clock.start()

    def _shutdown(signum, frame):
        service.telemetry.events.emit("service.signal", signum=signum)
        # shutdown() blocks until serve_forever returns; do it off-thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    if threading.current_thread() is threading.main_thread():
        import signal

        signal.signal(signal.SIGTERM, _shutdown)
        signal.signal(signal.SIGINT, _shutdown)
    if ready is not None:
        ready()
    try:
        server.serve_forever()
    finally:
        if clock is not None:
            clock.stop()
            clock.join(timeout=5.0)
        server.server_close()
        service.flush()
        service.telemetry.events.emit("service.stopped",
                                      next_day=service.runner.next_day)
