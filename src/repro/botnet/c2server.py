"""Simulated C2 servers: protocol dialects, elusiveness, attack issuance.

A :class:`C2Server` is the service bound to a C2 host's port inside the
virtual Internet.  It speaks its family's dialect server-side (answering
check-ins and keepalives) and pushes scheduled :class:`AttackCommand`\\ s to
connected bots — which is how the study eavesdrops on real attack launches
(section 2.5).

Elusiveness (section 3.2) is modeled by :class:`ResponsivenessModel`, a
two-state Markov chain sampled on the paper's 4-hour probe grid and
calibrated so that ~91% of the time a server that just responded will not
respond again 4 hours later, while still being reachable often enough to
be discovered at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.internet import SECONDS_PER_DAY, TimeWheel
from .families import C2Dialect, Family
from .protocols import daddyl33t, gafgyt, irc, mirai
from .protocols.base import AttackCommand

#: Probe interval of the D-PC2 campaign: 4 hours (section 2.3b).
SLOT_SECONDS = 4 * 3600.0


class ResponsivenessModel:
    """Markov-chain reachability of a C2 server on a 4-hour slot grid.

    ``p_stay_open`` is P(open at slot k+1 | open at slot k); the paper
    measures this at roughly 0.09 (91% of successful probes are not
    followed by a second success 4h later).  ``p_open`` is the stationary
    probability of being reachable in any given slot.

    The whole chain, from ``origin`` through the slot containing
    ``horizon``, is drawn at construction, so reading it writes nothing;
    a read past ``horizon`` is an error.
    """

    def __init__(
        self,
        seed: int,
        horizon: float,
        p_open: float = 0.22,
        p_stay_open: float = 0.09,
        origin: float = 0.0,
    ):
        if not 0 < p_open < 1:
            raise ValueError("p_open must be in (0, 1)")
        if not 0 <= p_stay_open <= 1:
            raise ValueError("p_stay_open must be in [0, 1]")
        # balance: pi*P(stay) + (1-pi)*P(reopen) = pi
        p_reopen = p_open * (1.0 - p_stay_open) / (1.0 - p_open)
        if p_reopen > 1:
            raise ValueError("inconsistent p_open/p_stay_open pair")
        self._origin = origin
        self._horizon = horizon
        rng = random.Random(seed)
        states = [rng.random() < p_open]
        for _ in range(self._slot(horizon)):
            threshold = p_stay_open if states[-1] else p_reopen
            states.append(rng.random() < threshold)
        self._states = tuple(states)

    def _slot(self, now: float) -> int:
        return max(0, int((now - self._origin) // SLOT_SECONDS))

    def is_open(self, now: float) -> bool:
        """Reachability of the server in the slot containing ``now``."""
        if now > self._horizon:
            raise ValueError(
                f"time {now} is past the chain's horizon {self._horizon}")
        return self._states[self._slot(now)]


@dataclass
class ScheduledAttack:
    """An attack command the C2 will issue at (or after) ``when``.

    A command is pushed once per *session* (the real CNC broadcasts to all
    connected bots), and only within ``window`` seconds of its scheduled
    time — an attack order is not replayed to bots that connect days later.
    """

    when: float
    command: AttackCommand
    window: float = 4 * 3600.0

    def due(self, now: float) -> bool:
        return self.when <= now < self.when + self.window


class C2Server:
    """Dialect-aware C2 service for the virtual Internet.

    Implements :class:`repro.netsim.internet.TcpService`.  All protocol
    state, including which scheduled attacks a bot already received, lives
    on the session object, so serving a bot writes nothing here.
    """

    def __init__(
        self,
        family: Family,
        schedule: list[ScheduledAttack] | None = None,
    ):
        if family.dialect == C2Dialect.P2P:
            raise ValueError("P2P families have no central C2 server")
        self.family = family
        #: the dialect's data handler, a function of (server, session, data)
        self._on_data = _DATA_HANDLERS[family.dialect]
        self.schedule = schedule or []
        self._index_schedule()

    # -- scheduling -----------------------------------------------------------

    def schedule_attack(self, when: float, command: AttackCommand) -> None:
        self.schedule.append(ScheduledAttack(when, command))
        self.schedule.sort(key=lambda item: item.when)
        self._index_schedule()

    def _index_schedule(self) -> None:
        """Bucket schedule indexes under every slot their window spans.

        Every bot poll used to scan the whole schedule; the wheel makes a
        poll touch only the commands whose delivery window overlaps the
        current 4h slot (an idle slot is one dict miss).  Indexes are
        inserted in ascending order, so per-slot candidates come back in
        the same order the full scan would have visited them — the
        ``delivered`` bookkeeping in session state is unchanged.  The
        wheel is rebuilt whenever the schedule changes, so a poll only
        reads it.
        """
        self._wheel = TimeWheel(SLOT_SECONDS)
        for index, item in enumerate(self.schedule):
            self._wheel.add_window(item.when, item.when + item.window, index)

    def _due_commands(self, session, now: float) -> list[AttackCommand]:
        delivered: set[int] = session.state.setdefault("delivered", set())
        due: list[AttackCommand] = []
        for index in self._wheel.items_at(now):
            item = self.schedule[index]
            if item.due(now) and index not in delivered:
                delivered.add(index)
                due.append(item.command)
        return due

    # -- TcpService interface ---------------------------------------------------

    def on_connect(self, session) -> None:
        session.state["buffer"] = b""
        session.state["registered"] = False
        if self.family.dialect == C2Dialect.DADDYL33T_TEXT:
            session.send(daddyl33t.WELCOME)
        elif self.family.dialect == C2Dialect.IRC:
            session.send(irc.encode_welcome())

    def on_data(self, session, data: bytes) -> None:
        self._on_data(self, session, data)

    # -- dialect handlers -------------------------------------------------------

    def _push_due(self, session, encode) -> None:
        for command in self._due_commands(session, session.now):
            session.send(encode(command))

    def _mirai_data(self, session, data: bytes) -> None:
        buffer = session.state["buffer"] + data
        if not session.state["registered"]:
            if mirai.is_checkin(buffer):
                session.state["registered"] = True
                session.send(mirai.HANDSHAKE)  # CNC acks with the same word
                buffer = b""
            session.state["buffer"] = buffer
            if not session.state["registered"]:
                return
        if mirai.KEEPALIVE in data or not data:
            session.send(mirai.KEEPALIVE)
        self._push_due(session, mirai.encode_attack)

    def _gafgyt_data(self, session, data: bytes) -> None:
        text = data.upper()
        if text.startswith(b"BUILD"):
            session.state["registered"] = True
            session.send(b"!* SCANNER ON\n")
        if b"PING" in text and session.state["registered"]:
            session.send(gafgyt.PONG)
        if session.state["registered"]:
            self._push_due(session, gafgyt.encode_attack)

    def _daddy_data(self, session, data: bytes) -> None:
        if data.lower().startswith(b"login "):
            session.state["registered"] = True
            session.send(b"auth ok\r\n")
        if session.state["registered"]:
            self._push_due(session, daddyl33t.encode_attack)

    def _irc_data(self, session, data: bytes) -> None:
        if irc.is_checkin(data) or data.upper().startswith(b"NICK"):
            session.state["registered"] = True
            session.send(irc.encode_ping())
        if session.state["registered"]:
            self._push_due(session, irc.encode_attack)


#: each dialect's server-side data handler
_DATA_HANDLERS = {
    C2Dialect.MIRAI_BINARY: C2Server._mirai_data,
    C2Dialect.GAFGYT_TEXT: C2Server._gafgyt_data,
    C2Dialect.DADDYL33T_TEXT: C2Server._daddy_data,
    C2Dialect.IRC: C2Server._irc_data,
}


class DownloaderHttp:
    """Plain HTTP loader-distribution service (port 80).

    The paper finds downloader servers co-located with C2s and always on
    port 80 (section 3.1); the world generator binds this service there.
    """

    def __init__(self, files: dict[str, bytes] | None = None):
        self.files = files or {}

    def on_connect(self, session) -> None:
        session.state["buffer"] = b""

    def on_data(self, session, data: bytes) -> None:
        buffer = session.state["buffer"] + data
        session.state["buffer"] = buffer
        if b"\r\n\r\n" not in buffer and b"\n\n" not in buffer:
            return
        line = buffer.split(b"\r\n", 1)[0].decode("ascii", "replace")
        parts = line.split()
        path = parts[1] if len(parts) >= 2 else "/"
        body = self.files.get(path.lstrip("/"), b"#!/bin/sh\nwget loader stub\n")
        session.send(
            b"HTTP/1.0 200 OK\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body
        )


def observed_lifespan_days(first_seen: float, last_seen: float) -> float:
    """The paper's lifespan metric: last minus first observation, in days."""
    if last_seen < first_seen:
        raise ValueError("last_seen before first_seen")
    return (last_seen - first_seen) / SECONDS_PER_DAY
