"""The ``repro worker`` task loop and the daemon that serves it over TCP.

:class:`TaskLoop` executes the task frames arriving on one coordinator
connection.  Per task it runs :func:`repro.core.parallel.execute_shard`
in an executor thread while the connection thread keeps heartbeats
flowing — so a unit that is merely slow looks alive to the coordinator,
and only a worker that is truly gone (process killed, network cut)
goes silent.  The loop has two hosts: :class:`WorkerServer` listens on
a TCP port and serves any number of coordinator connections, one
thread per connection (the ``cs2620_hw3`` peer-mesh idiom: daemon
threads around blocking sockets, a stop event for shutdown); and a
coordinator's *local slot*, a forked child serving one end of a
socketpair (:mod:`repro.dist.coordinator`).

Worlds are the expensive part of a unit (generation dwarfs the
pipeline at small unit sizes), so the daemon keeps a small LRU of
generated worlds keyed by :func:`~repro.dist.plan.world_key` and hands
every task of that key the cached world itself: a world is read-only
(each run owns its traffic engine), so concurrent tasks share it.  The
cache keys are reported in every ``hello-ack``/``result`` frame, which
is what lets the coordinator place units cache-aware.  A local slot's
cache starts with the parent's world, which the fork carried over, so
it never generates one.

Chaos: a fault plan's ``worker_crashes`` draw makes the loop drop the
coordinator's connection without a reply.  A daemon survives it (it is
one process serving many tasks) and a local slot's child exits; either
way the coordinator sees what a dead sandbox looks like: EOF, no result.
"""

from __future__ import annotations

import socket
import threading
from collections import OrderedDict

from . import wire
from .plan import world_key
from .wire import PROTOCOL_VERSION, WireError, recv_frame, send_frame

__all__ = ["TaskLoop", "WorkerServer", "WorldCache"]


class WorldCache:
    """Thread-safe LRU of generated worlds, shared by every lease.

    ``world`` (a local slot's fork snapshot) is the LRU's first entry.
    """

    def __init__(self, limit: int = 4, world=None):
        if limit < 1:
            raise ValueError("world cache limit must be >= 1")
        self.limit = limit
        self._worlds: OrderedDict[str, object] = OrderedDict()
        if world is not None:
            self._worlds[world_key(world.seed, world.scale)] = world
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lease(self, seed: int, scale):
        """The world for ``(seed, scale)``, generated on first use.  The
        same object goes to every lease: no run writes a world."""
        key = world_key(seed, scale)
        with self._lock:
            world = self._worlds.get(key)
            if world is not None:
                self._worlds.move_to_end(key)
                self.hits += 1
                return world
        from ..world import generate_world

        world = generate_world(seed=seed, scale=scale)
        with self._lock:
            self.misses += 1
            self._worlds[key] = world
            while len(self._worlds) > self.limit:
                self._worlds.popitem(last=False)
        return world

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._worlds)


class _ChaosDrop(Exception):
    """Internal: this task's chaos draw says 'die'; drop the connection."""


class TaskLoop:
    """The task loop on a coordinator connection: hello, task, shutdown."""

    def __init__(self, worlds: WorldCache, worker_id: str):
        self.worlds = worlds
        self.worker_id = worker_id
        self.tasks_run = 0

    def serve(self, conn: socket.socket, stop=None) -> None:
        """Serve ``conn`` until shutdown, EOF, a chaos drop, or ``stop``
        (a :class:`threading.Event`) is set; closes ``conn``."""
        try:
            while stop is None or not stop.is_set():
                try:
                    message = recv_frame(conn)
                except WireError:
                    return
                if message is None or message.get("type") == "shutdown":
                    return
                kind = message.get("type")
                if kind == "hello":
                    if message.get("protocol") != PROTOCOL_VERSION:
                        return
                    send_frame(conn, {
                        "type": "hello-ack",
                        "protocol": PROTOCOL_VERSION,
                        "worker": self.worker_id,
                        "warm": self.worlds.keys(),
                    })
                elif kind == "task":
                    self._run_task(conn, message)
        except _ChaosDrop:
            pass                  # die like a sandbox host: EOF, no reply
        except OSError:
            pass                  # coordinator went away mid-send
        finally:
            conn.close()

    def _run_task(self, conn: socket.socket, message: dict) -> None:
        from ..core.parallel import execute_shard
        from ..netsim.faults import WorkerCrash

        unit = message["unit"]
        attempt = message["attempt"]
        spec = message["spec"]
        config = spec.config_for(unit)
        box: dict = {}

        def execute():
            try:
                world = self.worlds.lease(spec.seed, spec.scale)
                box["result"] = execute_shard(world, config, attempt,
                                              spec.telemetry)
            except WorkerCrash:
                box["crash"] = True
            except BaseException as exc:  # ship the failure, stay alive
                box["error"] = f"{type(exc).__name__}: {exc}"

        thread = threading.Thread(target=execute, daemon=True)
        thread.start()
        while thread.is_alive():
            thread.join(wire.HEARTBEAT_INTERVAL)
            if thread.is_alive():
                send_frame(conn, {"type": "heartbeat"})
        self.tasks_run += 1
        if "crash" in box:
            raise _ChaosDrop
        if "error" in box:
            send_frame(conn, {"type": "failed", "unit": unit,
                              "error": box["error"]})
            return
        send_frame(conn, {"type": "result", "unit": unit,
                          "result": box["result"],
                          "warm": self.worlds.keys()})


class WorkerServer(TaskLoop):
    """Accept loop + the task loop on each accepted connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 world_cache_limit: int = 4):
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        super().__init__(WorldCache(world_cache_limit),
                         f"{self.host}:{self.port}")
        self._stop = threading.Event()
        self._accept_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self) -> None:
        """Blocking accept loop; returns after :meth:`shutdown`."""
        self._listener.settimeout(0.5)
        while not self._stop.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:      # listener closed under us
                break
            threading.Thread(target=self.serve, args=(conn, self._stop),
                             daemon=True).start()
        self._listener.close()

    def start(self) -> "WorkerServer":
        """Run the accept loop in a daemon thread (tests, embedding)."""
        if self._accept_thread is not None:
            raise RuntimeError("worker already started")
        self._accept_thread = threading.Thread(target=self.serve_forever,
                                               daemon=True)
        self._accept_thread.start()
        return self

    def shutdown(self) -> None:
        self._stop.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
