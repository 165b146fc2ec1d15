"""The coordinator: the one engine that places, steals and recovers units.

One :class:`Coordinator` owns the client side of every worker
connection for one study run.  A *peer* is either a ``host:port``
address — connecting dials a ``repro worker`` daemon over TCP — or a
*local slot*: connecting forks a child that runs the same
:class:`~repro.dist.worker.TaskLoop` on one end of a
``socket.socketpair()``.  Both kinds speak the same frames and share
one failure model; only connecting and reaping ask which kind a peer
is.

Work moves in dispatch *waves* (the unit of retry for
:meth:`ShardedStudyRunner.join <repro.core.parallel.
ShardedStudyRunner.join>`): :meth:`start_wave` connects and places the
first units, :meth:`finish_wave` runs a single-threaded ``selectors``
event loop over three structures::

    pending   deque of unit indexes not yet placed
    running   unit -> the set of peers currently executing it
    results   unit -> ShardResult (shared across waves by the runner)

and four policies:

*placement* — an idle worker gets the next pending unit; among idle
workers, one whose world cache already holds this study's
:func:`~repro.dist.plan.world_key` wins (a warm world is a deepcopy,
a cold one is a full regeneration, ~8× slower at full scale).  A slot
forked with the parent's world counts as warm for its first unit.

*stealing* — once ``pending`` is empty, an idle worker speculatively
duplicates the longest-running unit whose elapsed time exceeds
``max(min_steal_seconds, steal_factor × median completed-unit wall)``.
First result wins; the loser's result is discarded (``stolen_wasted``).
Because every unit is a pure function of ``(seed, scale, config,
unit)``, twins produce identical bytes — stealing can only move wall
clock, never the digest.

*loss detection* — a crash is EOF (the chaos draw drops the
connection; a local child then exits), a lost worker is a busy
connection silent for ``heartbeat_timeout``, and a unit that raises
comes back as a ``failed`` frame.  The units of a crashed or lost
worker are re-queued with ``attempt + 1``; the peer is reconnected (a
local slot re-forked) by the next wave's :meth:`connect` pass.  A hang
is the wave deadline: whatever is still running then is reported hung,
and the next :meth:`start_wave` SIGKILLs and reaps the coordinator's
own busy children before it forks fresh ones (remote daemons are left
alone).

*retry bounding* — a unit re-queued more than ``max_unit_retries``
times within one wave is abandoned to the wave's failure report; the
runner's ``max_redispatch`` waves then decide whether to try again.
"""

from __future__ import annotations

import os
import selectors
import signal
import socket
import statistics
import time
from collections import deque

from .plan import TaskSpec
from .wire import PROTOCOL_VERSION, FrameDecoder, WireError, recv_frame, \
    send_frame
from .worker import TaskLoop, WorldCache

__all__ = ["Coordinator", "CoordinatorError"]

#: seconds an idle local child gets to exit after its shutdown frame
_EXIT_GRACE = 2.0


class CoordinatorError(RuntimeError):
    """Misuse or unrecoverable coordinator state (not a lost worker)."""


class _Peer:
    """Client-side state of one configured worker: an address or a slot."""

    def __init__(self, index: int, address: str, local: bool = False):
        self.index = index
        self.address = address          # "host:port", or "local[i]"
        self.local = local              # a forked child on a socketpair
        self.sock: socket.socket | None = None
        self.decoder = FrameDecoder()
        self.worker_id = address        # replaced by a daemon's hello-ack
        self.pid: int | None = None
        self.warm: set[str] = set()     # world keys the worker holds
        self.busy_unit: int | None = None
        self.dispatched_at = 0.0
        self.last_seen = 0.0
        # lifetime accounting (across waves), surfaced by stats()
        self.completed = 0
        self.wall = 0.0
        self.warm_hits = 0

    @property
    def connected(self) -> bool:
        return self.sock is not None


class _Wave:
    """Mutable state of one dispatch wave."""

    def __init__(self, indexes, attempt, results, timeout, deadline):
        self.indexes = list(indexes)
        self.results = results
        self.timeout = timeout
        self.deadline = deadline
        self.pending = deque(sorted(i for i in self.indexes
                                    if i not in results))
        self.attempts = {i: attempt for i in self.pending}
        self.retries = {i: 0 for i in self.pending}
        self.abandoned: set[int] = set()
        self.running: dict[int, set[_Peer]] = {}
        self.reasons: dict[int, str] = {}
        self.walls: list[float] = []

    def outstanding(self) -> list[int]:
        return [i for i in self.indexes if i not in self.results]

    def recoverable(self) -> bool:
        """Something could still produce a missing result this wave."""
        return bool(self.pending) or bool(self.running)


class Coordinator:
    def __init__(self, spec: TaskSpec, peers=(), *, local_slots: int = 0,
                 heartbeat_timeout: float = 15.0,
                 steal_factor: float = 3.0,
                 min_steal_seconds: float = 1.0,
                 connect_timeout: float = 5.0,
                 max_unit_retries: int = 3,
                 clock=time.monotonic):
        if not peers and local_slots < 1:
            raise CoordinatorError("coordinator needs at least one peer")
        self.spec = spec
        self.heartbeat_timeout = heartbeat_timeout
        self.steal_factor = steal_factor
        self.min_steal_seconds = min_steal_seconds
        self.connect_timeout = connect_timeout
        self.max_unit_retries = max_unit_retries
        self._clock = clock
        self.peers = [_Peer(i, address) for i, address in enumerate(peers)]
        self.peers += [_Peer(len(self.peers) + i, f"local[{i}]", local=True)
                       for i in range(local_slots)]
        self._selector = selectors.DefaultSelector()
        self._wave: _Wave | None = None
        # lifetime accounting across waves
        self.redispatches = 0     # units re-queued (lost worker / failure)
        self.steals = 0
        self.stolen_wasted = 0
        self.lost_workers: list[dict] = []
        self.placements: list[dict] = []

    # -- connection management ---------------------------------------------

    def connect(self, world, want: int) -> int:
        """(Re)connect every unconnected peer; returns the live count.

        TCP peers are dialed; local slots are forked, at most until
        ``want`` peers are live.  ``world`` is the parent's world while
        it is still pristine: a slot forked now runs its first unit on
        its inherited copy.  Unreachable addresses are skipped, not
        fatal — the wave reports its units failed instead.
        """
        live = sum(1 for p in self.peers if p.connected)
        for peer in self.peers:
            if peer.connected:
                continue
            if not peer.local:
                self._dial(peer)
            elif live < want:
                self._fork(peer, world)
            if peer.connected:
                live += 1
                self._selector.register(peer.sock, selectors.EVENT_READ,
                                        peer)
        return live

    def _dial(self, peer: _Peer) -> None:
        host, _, port = peer.address.rpartition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=self.connect_timeout)
            send_frame(sock, {"type": "hello",
                              "protocol": PROTOCOL_VERSION,
                              "world": self.spec.world_key})
            ack = recv_frame(sock)
        except (OSError, WireError):
            return
        if (not isinstance(ack, dict) or ack.get("type") != "hello-ack"
                or ack.get("protocol") != PROTOCOL_VERSION):
            sock.close()
            return
        self._adopt(peer, sock)
        peer.worker_id = str(ack.get("worker", peer.address))
        peer.pid = ack.get("pid")
        peer.warm = set(ack.get("warm", ()))

    def _fork(self, peer: _Peer, world) -> None:
        parent_end, child_end = socket.socketpair()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            status = 0
            try:
                # drop every inherited parent end, so a sibling's EOF
                # means that sibling died and the parent's close reaches
                # each child
                parent_end.close()
                self._selector.close()
                for other in self.peers:
                    if other.sock is not None:
                        other.sock.close()
                TaskLoop(WorldCache(inherited=world),
                         peer.worker_id).serve(child_end)
            except BaseException:
                status = 1
            finally:
                os._exit(status)
        child_end.close()
        self._adopt(peer, parent_end)
        peer.pid = pid
        peer.warm = {self.spec.world_key} if world is not None else set()

    def _adopt(self, peer: _Peer, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setblocking(False)
        peer.sock = sock
        peer.decoder = FrameDecoder()
        peer.last_seen = self._clock()

    def _disconnect(self, peer: _Peer, kill: bool = True) -> None:
        """Close a peer's connection; SIGKILL (or, with ``kill=False``,
        await) and reap a local child."""
        if peer.sock is not None:
            try:
                self._selector.unregister(peer.sock)
            except (KeyError, ValueError):
                pass
            peer.sock.close()
            peer.sock = None
        peer.busy_unit = None
        if peer.local and peer.pid is not None:
            _reap(peer.pid, 0.0 if kill else _EXIT_GRACE)
            peer.pid = None

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
        self._selector.close()

    def _live(self) -> list[_Peer]:
        return [p for p in self.peers if p.connected]

    # -- one wave ----------------------------------------------------------

    def start_wave(self, indexes, attempt: int, results: dict, *,
                   timeout: float | None = None, world=None) -> None:
        """Connect and place one wave; returns without waiting for it.

        Busy local children left over from the previous wave are hung:
        they are SIGKILLed and reaped first, and their slots re-forked.
        """
        if self._wave is not None:
            raise CoordinatorError("previous wave still in flight")
        for peer in self.peers:
            if peer.local and peer.busy_unit is not None:
                self._disconnect(peer)
        deadline = None if timeout is None else self._clock() + timeout
        wave = _Wave(indexes, attempt, results, timeout, deadline)
        self._wave = wave
        outstanding = wave.outstanding()
        if not outstanding:
            return
        if self.connect(world, want=len(outstanding)) == 0:
            addresses = [p.address for p in self.peers]
            for unit in outstanding:
                wave.reasons[unit] = (f"unit {unit}: no reachable workers "
                                      f"(peers: {addresses})")
            return
        self._assign(wave)

    def finish_wave(self) -> dict[int, str]:
        """Drain the wave in flight; returns ``unit -> failure text`` for
        whatever could not be resolved (empty on full success)."""
        wave, self._wave = self._wave, None
        if wave is None:
            raise CoordinatorError("no wave in flight")
        self._loop(wave)
        failures = {}
        for unit in wave.outstanding():
            runners = wave.running.get(unit)
            if runners:
                names = ", ".join(sorted(p.worker_id for p in runners))
                failures[unit] = (
                    f"unit {unit}: worker hung ({names}): no result "
                    f"within the {wave.timeout}s wave deadline")
            else:
                failures[unit] = wave.reasons.get(
                    unit, f"unit {unit}: not placed within the "
                          f"{wave.timeout}s wave deadline (workers busy)")
        return failures

    def _loop(self, wave: _Wave) -> None:
        while wave.outstanding():
            self._assign(wave)
            if not wave.recoverable():
                return                       # every missing unit abandoned
            if not self._live():
                for unit in wave.outstanding():
                    wave.reasons.setdefault(unit,
                                            f"unit {unit}: all workers lost")
                return
            now = self._clock()
            wait = 0.2 if wave.deadline is None else max(
                0.0, min(0.2, wave.deadline - now))
            for key, _ in self._selector.select(wait):
                if key.data.connected:
                    self._pump(key.data, wave)
            now = self._clock()
            for peer in self._live():
                if (peer.busy_unit is not None
                        and now - peer.last_seen > self.heartbeat_timeout):
                    self._lose(peer, "heartbeat lost (silent for "
                               f"{self.heartbeat_timeout}s)", wave)
            self._maybe_steal(wave, self._clock())
            if wave.deadline is not None and self._clock() >= wave.deadline:
                return

    # -- event handling ----------------------------------------------------

    def _pump(self, peer: _Peer, wave: _Wave) -> None:
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
            self._lose(peer, f"worker crashed (recv failed: {exc})", wave)
            return
        if not data:
            self._lose(peer, "worker crashed (connection closed)", wave)
            return
        try:
            messages = peer.decoder.feed(data)
        except WireError as exc:
            self._lose(peer, f"protocol error: {exc}", wave)
            return
        peer.last_seen = self._clock()
        for message in messages:
            self._handle(peer, message, wave)

    def _handle(self, peer: _Peer, message: dict, wave: _Wave) -> None:
        kind = message.get("type")
        if kind == "heartbeat":
            return
        if kind == "result":
            unit = message["unit"]
            peer.busy_unit = None
            peer.warm = set(message.get("warm", peer.warm))
            wall = float(message.get("wall", 0.0))
            if unit in wave.results:
                # a steal twin lost the race; identical bytes discarded
                self.stolen_wasted += 1
            else:
                result = message["result"]
                result.worker = peer.worker_id
                wave.results[unit] = result
                wave.abandoned.discard(unit)
                wave.walls.append(wall)
            peer.completed += 1
            peer.wall += wall
            runners = wave.running.pop(unit, set())
            runners.discard(peer)
            # twins still executing stay busy until their (now wasted)
            # result drains; the unit itself is settled
            return
        if kind == "failed":
            unit = message["unit"]
            peer.busy_unit = None
            runners = wave.running.get(unit)
            if runners is not None:
                runners.discard(peer)
            self._drop_unit(unit, f"unit {unit}: worker {peer.worker_id} "
                            f"raised {message.get('error', 'an error')}",
                            wave)
            return
        # hello-ack duplicates and unknown types are ignored: the wire
        # checksum already guarantees they are well-formed

    def _drop_unit(self, unit: int, reason: str, wave: _Wave) -> None:
        """A unit lost one executor; re-queue unless a twin survives."""
        wave.reasons[unit] = reason
        if unit in wave.results:
            return
        if wave.running.get(unit):
            return                       # a steal twin is still on it
        wave.running.pop(unit, None)
        if unit not in wave.retries:     # stale unit from a prior wave
            return
        wave.retries[unit] += 1
        if wave.retries[unit] > self.max_unit_retries:
            wave.abandoned.add(unit)
            wave.reasons[unit] = (
                f"{reason} (gave up after {self.max_unit_retries} "
                "re-queues this wave)")
            return
        wave.attempts[unit] += 1
        self.redispatches += 1
        wave.pending.append(unit)

    def _lose(self, peer: _Peer, reason: str, wave: _Wave) -> None:
        """Declare a worker lost: drop (and reap) it, requeue its units."""
        self.lost_workers.append({
            "worker": peer.worker_id, "address": peer.address,
            "reason": reason, "busy_unit": peer.busy_unit,
        })
        self._disconnect(peer)
        dropped = [unit for unit, runners in wave.running.items()
                   if peer in runners]
        when = ("" if wave.timeout is None
                else f" before the {wave.timeout}s wave deadline")
        for unit in dropped:
            wave.running[unit].discard(peer)
            self._drop_unit(unit, f"unit {unit}: {reason} on "
                            f"{peer.worker_id}{when}", wave)

    # -- scheduling --------------------------------------------------------

    def _choose(self, idle: list[_Peer]) -> _Peer:
        """Warm-first, then configuration order (deterministic)."""
        return min(idle, key=lambda p: (self.spec.world_key not in p.warm,
                                        p.index))

    def _assign(self, wave: _Wave) -> None:
        while wave.pending:
            idle = [p for p in self._live() if p.busy_unit is None]
            if not idle:
                return
            unit = wave.pending.popleft()
            if unit in wave.results or unit in wave.abandoned:
                continue
            peer = self._choose(idle)
            if not self._send_task(peer, unit, wave.attempts[unit],
                                   wave, steal=False):
                wave.pending.appendleft(unit)

    def _send_task(self, peer: _Peer, unit: int, attempt: int,
                   wave: _Wave, *, steal: bool) -> bool:
        warm = self.spec.world_key in peer.warm
        try:
            send_frame(peer.sock, {
                "type": "task", "unit": unit, "attempt": attempt,
                "spec": {
                    "seed": self.spec.seed,
                    "scale": self.spec.scale,
                    "config": self.spec.config,
                    "unit_count": self.spec.shard_count,
                    "telemetry": self.spec.telemetry,
                },
            })
        except OSError as exc:
            self._lose(peer, f"worker lost (send failed: {exc})", wave)
            return False
        peer.busy_unit = unit
        # the heartbeat clock starts at dispatch: an idle worker has had
        # nothing to heartbeat about
        peer.dispatched_at = peer.last_seen = self._clock()
        if warm:
            peer.warm_hits += 1
        wave.running.setdefault(unit, set()).add(peer)
        self.placements.append({
            "unit": unit, "attempt": attempt, "worker": peer.worker_id,
            "warm": warm, "steal": steal,
        })
        return True

    def _maybe_steal(self, wave: _Wave, now: float) -> None:
        if wave.pending:
            return
        idle = [p for p in self._live() if p.busy_unit is None]
        if not idle:
            return
        threshold = self.min_steal_seconds
        if wave.walls:
            threshold = max(self.min_steal_seconds,
                            self.steal_factor * statistics.median(wave.walls))
        stragglers = [
            p for p in self._live()
            if p.busy_unit is not None
            and len(wave.running.get(p.busy_unit, ())) == 1
            and now - p.dispatched_at > threshold
        ]
        stragglers.sort(key=lambda p: now - p.dispatched_at, reverse=True)
        for straggler in stragglers:
            if not idle:
                return
            unit = straggler.busy_unit
            thief = self._choose(idle)
            idle.remove(thief)
            # same attempt as the original dispatch: the unit is a pure
            # function of (seed, scale, config, unit), twins tie safely
            if self._send_task(thief, unit, wave.attempts.get(unit, 0),
                               wave, steal=True):
                self.steals += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "transport": ("local" if all(p.local for p in self.peers)
                          else "socket"),
            "units": self.spec.shard_count,
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
