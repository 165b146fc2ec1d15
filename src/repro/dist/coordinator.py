"""The sharded study runner: the one engine that places, steals and
recovers units.

MalNet ran four CnCHunter sandboxes side by side (§2.2).  One
:class:`ShardedStudyRunner` runs such a fleet for one study and owns the
client side of every worker connection.  A *peer* is either a
``host:port`` address — connecting dials a ``repro worker`` daemon over
TCP — or a *local slot*: connecting forks a child that runs the same
:class:`~repro.dist.worker.TaskLoop` on one end of a
``socket.socketpair()``.  Both kinds speak the same frames and share one
failure model; only connecting and reaping ask which kind a peer is.

:func:`~repro.dist.plan.plan_fleet` is the one check of what a run asks
for — ``workers``, ``peers`` and ``unit_count``, a sharded run's only
settings; the runner's constructor calls it too.  Constructing a runner
opens nothing: no socket or fork happens before
:meth:`~ShardedStudyRunner.start`.

:meth:`~ShardedStudyRunner.start` connects and places the first units
without waiting; :meth:`~ShardedStudyRunner.join` runs one
single-threaded event loop until every unit has a result or has used its
re-dispatch budget, then closes every connection and reaps every child.
The loop works over three structures::

    pending   deque of unit indexes waiting for a worker
    running   unit -> the set of peers currently executing it
    results   unit -> ShardResult

and four policies:

*placement* — an idle worker gets the next pending unit; among idle
workers, one whose world cache already holds this study's
:func:`~repro.dist.plan.world_key` wins (a warm world is shared as is,
a cold one is a full generation).  A local slot is always warm: it
holds the parent's world from the fork on.

*stealing* — once ``pending`` is empty, an idle worker speculatively
duplicates the longest-running unit whose elapsed time exceeds
``max(MIN_STEAL_SECONDS, STEAL_FACTOR × median completed-unit wall)``.
First result wins; the loser's result is discarded (``stolen_wasted``).
Because every unit is a pure function of ``(seed, scale, config,
unit)``, twins produce identical bytes — stealing can only move wall
clock, never the digest.

*failure* — five events take one path: EOF on a connection, a
connection reset, a busy connection silent for
:func:`~repro.dist.wire.heartbeat_timeout`, a ``failed`` frame, and a
dispatch older than ``SHARD_TIMEOUT`` (a hang; counted from placement,
so time a unit waits in ``pending`` is never charged).  A lost local
child is SIGKILLed and reaped, a lost TCP connection closed.  Unless a
steal twin still runs the unit, the unit goes back to ``pending`` at
``attempt + 1`` while it has re-dispatches left, and fails with its
last reason when it has none.  Each unit has ``MAX_REDISPATCH`` of
them, whatever the fleet size: ``MAX_REDISPATCH = 0`` is exactly one
try.  A steal twin keeps its unit's attempt and costs nothing.

The policy numbers are module constants, not arguments: no caller ever
set another value.  The loop reads them at call time, so a test can
patch them on this module (and the heartbeat pair on
:mod:`repro.dist.wire`).

*reconnection* — only when a unit is pending and no peer is connected:
:meth:`~ShardedStudyRunner.connect` redials every address and re-forks
local slots, which inherit the runner's world again (no run writes
it).  If nothing connects, the pending units fail with ``no reachable
workers``.
"""

from __future__ import annotations

import os
import signal
import socket
import statistics
import time
from collections import deque
from multiprocessing.connection import wait

from ..core.pipeline import PipelineConfig
from ..world.generator import World
from .plan import FleetError, TaskSpec, plan_fleet
from .wire import PROTOCOL_VERSION, FrameDecoder, WireError, \
    heartbeat_timeout, recv_frame, send_frame
from .worker import TaskLoop, WorldCache

__all__ = ["ShardedStudyRunner"]

#: seconds one dispatch may run before it counts as hung
SHARD_TIMEOUT = 600.0
#: re-dispatches each unit may use after its first try
MAX_REDISPATCH = 2
#: a straggler runs longer than this many median completed-unit walls...
STEAL_FACTOR = 3.0
#: ...and longer than this many seconds before an idle worker twins it
MIN_STEAL_SECONDS = 1.0
#: seconds to dial a TCP peer and read its hello-ack
CONNECT_TIMEOUT = 5.0
#: seconds an idle local child gets to exit after its shutdown frame
_EXIT_GRACE = 2.0


class _Peer:
    """Client-side state of one configured worker: an address or a slot."""

    def __init__(self, index: int, address: str, local: bool = False):
        self.index = index
        self.address = address          # "host:port", or "local[i]"
        self.local = local              # a forked child on a socketpair
        self.sock: socket.socket | None = None
        self.decoder = FrameDecoder()
        self.worker_id = address        # replaced by a daemon's hello-ack
        self.pid: int | None = None     # a local slot's forked child
        self.warm: set[str] = set()     # world keys the worker holds
        self.busy_unit: int | None = None
        self.dispatched_at = 0.0
        self.last_seen = 0.0
        # lifetime accounting, surfaced by stats()
        self.completed = 0
        self.wall = 0.0
        self.warm_hits = 0

    @property
    def connected(self) -> bool:
        return self.sock is not None


class ShardedStudyRunner:
    """Runs the daily pipeline across sha256-partitioned executors.

    Usage is two-phase so the parent can do useful work (the probing
    campaign) while the executors grind through the units::

        runner = ShardedStudyRunner(world, workers=4).start()
        ...                       # parent-side work overlaps execution
        shards = runner.join()    # [ShardResult, ...] in unit order

    ``workers=N`` runs the units on N local slots, forked children of
    this process (one unit per slot by default); ``peers`` (``["host:
    port", ...]``, exclusive with ``workers``) dispatches them to
    ``repro worker`` daemons instead.
    :func:`~repro.dist.plan.plan_fleet` checks the three and sizes the
    fleet; any unit count merges to the same digest.

    After :meth:`join`, :attr:`failed_shards` lists the unit indexes
    that never produced a result (crashed/hung/raised on every try),
    :attr:`failures` keeps the last error text of every unit that failed
    at least once, and :meth:`stats` is the placement/steal/wall
    accounting the run manifest records.  Callers must treat a
    non-empty :attr:`failed_shards` as a partial merge.
    """

    def __init__(self, world: World, workers: int | None = None,
                 config: PipelineConfig | None = None,
                 telemetry_enabled: bool = False,
                 peers: list[str] | None = None,
                 unit_count: int | None = None):
        fleet = plan_fleet(workers, peers, unit_count)
        if fleet is None:
            raise FleetError("a sharded run needs workers or peers")
        if not peers and not hasattr(os, "fork"):
            raise RuntimeError(
                "local worker slots need os.fork(), which this "
                "platform lacks; start `repro worker` daemons and "
                "pass their host:port addresses as peers instead")
        #: the world every local slot runs on (no run writes it)
        self.world = world
        #: fleet width (local slots, or the peer count) and the number of
        #: sha256 units the corpus is cut into
        self.workers, self.shard_count = fleet
        #: rides in every task frame; ``telemetry`` makes executors run
        #: real tracer/event-log instruments and ship their snapshots
        self.spec = TaskSpec(seed=world.seed, scale=world.scale,
                             config=config or PipelineConfig(),
                             shard_count=self.shard_count,
                             telemetry=telemetry_enabled)
        addresses = peers or [f"local[{i}]" for i in range(self.workers)]
        self.peers = [_Peer(i, address, local=not peers)
                      for i, address in enumerate(addresses)]
        self.pending = deque(range(self.shard_count))
        #: each unit's current attempt (0 = first try)
        self.attempts = dict.fromkeys(self.pending, 0)
        self.running: dict[int, set[_Peer]] = {}
        #: unit -> ShardResult; in unit order once :meth:`join` returns
        self.results: dict = {}
        #: last failure text of each unit that failed at least once
        self.failures: dict[int, str] = {}
        self._walls: list[float] = []
        self.steals = 0
        self.stolen_wasted = 0
        self.lost_workers: list[dict] = []
        self.placements: list[dict] = []
        self._phase = "new"             # -> "started" -> "joined"

    @property
    def failed_shards(self) -> list[int]:
        """Unit indexes with no result (after :meth:`join`: the units
        that used up their re-dispatch budget)."""
        return sorted(set(range(self.shard_count)) - set(self.results))

    @property
    def redispatches(self) -> int:
        """Placements that re-ran a failed unit (steal twins excluded)."""
        return sum(1 for p in self.placements
                   if p["attempt"] and not p["steal"])

    @property
    def transport(self) -> str:
        """Which kind of peer runs the units: ``local`` or ``socket``."""
        return "local" if all(p.local for p in self.peers) else "socket"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardedStudyRunner":
        """Connect the fleet and place the first units (non-blocking).

        Local slots fork here and run every unit on the world they
        inherit: the parent's runs share it without writing it."""
        if self._phase != "new":
            raise RuntimeError("runner already started")
        self._phase = "started"
        try:
            self._connect()
            self._assign()
        except BaseException:
            self.close()
            raise
        return self

    def join(self) -> list:
        """Run the event loop until every unit has a result or has used
        its re-dispatch budget; returns the ``ShardResult`` list in unit
        order.

        Units that used up their budget are recorded in
        :attr:`failed_shards` / :attr:`failures` and simply absent from
        the returned list.  Every child is reaped before this returns.
        """
        if self._phase == "new":
            raise RuntimeError("runner not started")
        if self._phase == "joined":
            raise RuntimeError("runner already joined")
        self._phase = "joined"
        try:
            while self.pending or self.running:
                if self.pending and not self._live():
                    self._connect()
                    continue
                self._assign()
                live = {peer.sock: peer for peer in self._live()}
                for sock in wait(list(live), 0.2):
                    if live[sock].connected:
                        self._pump(live[sock])
                now = time.monotonic()
                silence = heartbeat_timeout()
                for peer in self._live():
                    if peer.busy_unit is None:
                        continue
                    if now - peer.last_seen > silence:
                        self._lose(peer, "heartbeat lost (silent for "
                                   f"{silence}s)")
                    elif now - peer.dispatched_at > SHARD_TIMEOUT:
                        self._lose(peer, "worker hung (no result within "
                                   f"shard_timeout={SHARD_TIMEOUT}s)")
                self._maybe_steal(time.monotonic())
        finally:
            self.close()
        self.results = dict(sorted(self.results.items()))
        return list(self.results.values())

    def close(self) -> None:
        """Shut every connection and reap every child.  Idle workers get
        a ``shutdown`` frame; busy local children (a hung unit, a losing
        steal twin) are SIGKILLed."""
        for peer in self.peers:
            if peer.sock is not None and peer.busy_unit is None:
                try:
                    send_frame(peer.sock, {"type": "shutdown"})
                except OSError:
                    pass
        for peer in self.peers:
            self._disconnect(peer, kill=peer.busy_unit is not None)

    # -- connection management ---------------------------------------------

    def connect(self, want: int) -> int:
        """(Re)connect every unconnected peer; returns the live count.

        TCP peers are dialed; local slots are forked with :attr:`world`,
        at most until ``want`` peers are live.  Unreachable addresses
        are skipped, not fatal.
        """
        live = sum(1 for p in self.peers if p.connected)
        for peer in self.peers:
            if peer.connected:
                continue
            if not peer.local:
                self._dial(peer)
            elif live < want:
                self._fork(peer)
            if peer.connected:
                live += 1
        return live

    def _dial(self, peer: _Peer) -> None:
        host, _, port = peer.address.rpartition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=CONNECT_TIMEOUT)
            send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
            ack = recv_frame(sock)
        except (OSError, WireError):
            return
        if (not isinstance(ack, dict) or ack.get("type") != "hello-ack"
                or ack.get("protocol") != PROTOCOL_VERSION):
            sock.close()
            return
        self._adopt(peer, sock)
        peer.worker_id = str(ack.get("worker", peer.address))
        peer.warm = set(ack.get("warm", ()))

    def _fork(self, peer: _Peer) -> None:
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            status = 0
            try:
                # drop every parent end the fork copied, so a sibling's EOF
                # means that sibling died and the parent's close reaches
                # each child
                parent_end.close()
                for other in self.peers:
                    if other.sock is not None:
                        other.sock.close()
                TaskLoop(WorldCache(world=self.world),
                         peer.worker_id).serve(child_end)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        child_end.close()
        self._adopt(peer, parent_end)
        peer.pid = pid
        peer.warm = {self.spec.world_key}

    def _adopt(self, peer: _Peer, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setblocking(False)
        peer.sock = sock
        peer.decoder = FrameDecoder()
        peer.last_seen = time.monotonic()

    def _disconnect(self, peer: _Peer, kill: bool = True) -> None:
        """Close a peer's connection; SIGKILL (or, with ``kill=False``,
        await) and reap a local child."""
        if peer.sock is not None:
            peer.sock.close()
            peer.sock = None
        peer.busy_unit = None
        if peer.local and peer.pid is not None:
            _reap(peer.pid, 0.0 if kill else _EXIT_GRACE)
            peer.pid = None

    def _live(self) -> list[_Peer]:
        return [p for p in self.peers if p.connected]

    def _connect(self) -> None:
        """Connect peers for the pending units; if none is reachable,
        the pending units fail."""
        if self.connect(want=len(self.pending)):
            return
        addresses = [p.address for p in self.peers]
        while self.pending:
            unit = self.pending.popleft()
            self.failures[unit] = (f"unit {unit}: no reachable workers "
                                   f"(peers: {addresses})")

    # -- event handling ----------------------------------------------------

    def _pump(self, peer: _Peer) -> None:
        """Drain one readable socket into message handling."""
        try:
            data = peer.sock.recv(1 << 18)
        except BlockingIOError:      # spurious wakeup
            return
        except ConnectionResetError:
            # a worker killed with bytes of ours still unread resets the
            # connection instead of closing it: the same crash as EOF
            data = b""
        except OSError as exc:
            self._lose(peer, f"worker crashed (recv failed: {exc})")
            return
        if not data:
            self._lose(peer, "worker crashed (connection closed)")
            return
        try:
            messages = peer.decoder.feed(data)
        except WireError as exc:
            self._lose(peer, f"protocol error: {exc}")
            return
        peer.last_seen = time.monotonic()
        for message in messages:
            self._handle(peer, message)

    def _handle(self, peer: _Peer, message: dict) -> None:
        kind = message.get("type")
        if kind == "heartbeat":
            return
        if kind == "result":
            unit = message["unit"]
            result = message["result"]
            peer.busy_unit = None
            peer.warm = set(message.get("warm", peer.warm))
            wall = result.wall_seconds
            if unit in self.results:
                # a steal twin lost the race; identical bytes discarded
                self.stolen_wasted += 1
            else:
                result.worker = peer.worker_id
                self.results[unit] = result
                self._walls.append(wall)
            peer.completed += 1
            peer.wall += wall
            # twins still executing stay busy until their (now wasted)
            # result drains; the unit itself is settled
            self.running.pop(unit, None)
            return
        if kind == "failed":
            unit = message["unit"]
            peer.busy_unit = None
            self._drop(peer, unit, f"unit {unit}: worker {peer.worker_id} "
                       f"raised {message.get('error', 'an error')}")
            return
        # hello-ack duplicates and unknown types are ignored: the wire
        # checksum already guarantees they are well-formed

    def _drop(self, peer: _Peer, unit: int, reason: str) -> None:
        """The one failure path: ``peer`` no longer runs ``unit``.

        A settled unit, or one a steal twin still runs, costs nothing.
        Otherwise the unit is re-queued at ``attempt + 1`` while it has
        re-dispatches left, and fails with ``reason`` when it has none.
        """
        runners = self.running.get(unit, set())
        runners.discard(peer)
        if unit in self.results or runners:
            return
        self.running.pop(unit, None)
        self.failures[unit] = reason
        if self.attempts[unit] < MAX_REDISPATCH:
            self.attempts[unit] += 1
            self.pending.append(unit)

    def _lose(self, peer: _Peer, reason: str) -> None:
        """Declare a worker lost: drop (and reap) it, fail its unit."""
        unit = peer.busy_unit
        self.lost_workers.append({
            "worker": peer.worker_id, "address": peer.address,
            "reason": reason, "busy_unit": unit,
        })
        self._disconnect(peer)
        if unit is not None:
            self._drop(peer, unit,
                       f"unit {unit}: {reason} on {peer.worker_id}")

    # -- scheduling --------------------------------------------------------

    def _choose(self, idle: list[_Peer]) -> _Peer:
        """Warm-first, then configuration order (deterministic)."""
        return min(idle, key=lambda p: (self.spec.world_key not in p.warm,
                                        p.index))

    def _assign(self) -> None:
        while self.pending:
            idle = [p for p in self._live() if p.busy_unit is None]
            if not idle:
                return
            self._send_task(self._choose(idle), self.pending.popleft(),
                            steal=False)

    def _send_task(self, peer: _Peer, unit: int, *, steal: bool) -> None:
        # a steal twin runs the unit's current attempt: the unit is a
        # pure function of (seed, scale, config, unit), twins tie safely
        attempt = self.attempts[unit]
        warm = self.spec.world_key in peer.warm
        peer.busy_unit = unit
        # the heartbeat clock and the shard timeout both start at
        # dispatch: an idle or queued worker has had nothing to report
        peer.dispatched_at = peer.last_seen = time.monotonic()
        if warm:
            peer.warm_hits += 1
        self.running.setdefault(unit, set()).add(peer)
        self.placements.append({
            "unit": unit, "attempt": attempt, "worker": peer.worker_id,
            "warm": warm, "steal": steal,
        })
        try:
            send_frame(peer.sock, {"type": "task", "unit": unit,
                                   "attempt": attempt, "spec": self.spec})
        except OSError as exc:
            self._lose(peer, f"worker lost (send failed: {exc})")

    def _maybe_steal(self, now: float) -> None:
        if self.pending:
            return
        idle = [p for p in self._live() if p.busy_unit is None]
        if not idle:
            return
        threshold = MIN_STEAL_SECONDS
        if self._walls:
            threshold = max(MIN_STEAL_SECONDS,
                            STEAL_FACTOR * statistics.median(self._walls))
        stragglers = [
            p for p in self._live()
            if p.busy_unit is not None
            and len(self.running.get(p.busy_unit, ())) == 1
            and now - p.dispatched_at > threshold
        ]
        stragglers.sort(key=lambda p: now - p.dispatched_at, reverse=True)
        for straggler in stragglers:
            if not idle:
                return
            thief = self._choose(idle)
            idle.remove(thief)
            self.steals += 1
            self._send_task(thief, straggler.busy_unit, steal=True)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        """Placement, steal and per-worker accounting (the manifest's
        ``extra.dist``)."""
        return {
            "transport": self.transport,
            "units": self.shard_count,
            "peers": [p.address for p in self.peers],
            "placements": list(self.placements),
            "steals": self.steals,
            "stolen_wasted": self.stolen_wasted,
            "redispatches": self.redispatches,
            "lost_workers": list(self.lost_workers),
            "per_worker": {
                p.worker_id: {
                    "address": p.address,
                    "units_completed": p.completed,
                    "wall_seconds": round(p.wall, 6),
                    "warm_placements": p.warm_hits,
                }
                for p in self.peers
            },
        }


def _reap(pid: int, grace: float) -> None:
    """Wait up to ``grace`` seconds for a child to exit, then SIGKILL it;
    either way it is reaped (no zombie is left behind)."""
    deadline = time.monotonic() + grace
    while True:
        try:
            done, _status = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return
        if done:
            return
        if time.monotonic() >= deadline:
            break
        time.sleep(0.005)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
