"""The handshaker: exploit extraction by impersonating victims (§2.4).

The trick: watch which destination ports the malware scans; once a port
has been tried against more than ``fanout_threshold`` distinct IPs (the
paper uses 20), open a local fake victim on that port and redirect the
malware's next connections there.  The malware completes the TCP
handshake with the fake target and sends its first data packets — which
contain the exploit.

:meth:`Handshaker.scan` runs a whole scan burst of a bot as one batched
kernel: draw the targets, decide redirection for the batch, draw the
ephemeral ports and payloads, record every row in one bulk append.
Each draw goes through ``Random._randbelow`` — the call ``randrange(a,
b)`` and ``choice`` make — in the order a one-connection-at-a-time scan
made it, so the trace, the captures and both random streams are exactly
what that scan produced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress

from ..botnet.bot import Bot
from ..netsim.capture import Capture
from ..netsim.packet import DEFAULT_TTL, Protocol, TcpFlags

#: ports contacted on more than this many distinct IPs get a fake victim
DEFAULT_FANOUT_THRESHOLD = 20

#: seconds between consecutive trace rows
_TICK = 0.005
#: ephemeral source ports: ``_EPHEMERAL + _randbelow(_EPHEMERAL_SPAN)``
#: is ``randrange(49152, 65536)``
_EPHEMERAL = 49152
_EPHEMERAL_SPAN = 16384
_TCP = int(Protocol.TCP)
_SYN = int(TcpFlags.SYN)
_PSH_ACK = int(TcpFlags.PSH | TcpFlags.ACK)


@dataclass(slots=True)
class ExploitCapture:
    """One payload collected from a completed fake-victim handshake."""

    port: int
    target: int          # the address the malware believed it attacked
    payload: bytes


class Handshaker:
    """Scan-port discovery plus fake-victim redirection."""

    def __init__(
        self,
        bot_ip: int,
        rng: random.Random,
        fanout_threshold: int = DEFAULT_FANOUT_THRESHOLD,
        trace: Capture | None = None,
        base_time: float = 0.0,
    ):
        if fanout_threshold < 1:
            raise ValueError("fanout_threshold must be positive")
        self.bot_ip = bot_ip
        self.rng = rng
        self.fanout_threshold = fanout_threshold
        self.trace = trace if trace is not None else Capture(label="handshaker")
        self.base_time = base_time
        #: rows recorded so far; row ``n`` is stamped ``base_time + n * 0.005``
        self.ticks = 0
        #: port -> distinct target IPs observed
        self.fanout: dict[int, set[int]] = {}
        #: ports currently redirected to fake victims
        self.redirected_ports: set[int] = set()
        self.captures: list[ExploitCapture] = []
        self._latest: dict[tuple[int, int], ExploitCapture] = {}

    # -- the kernel ------------------------------------------------------------

    def scan(self, bot: Bot, count: int) -> int:
        """Run one scan burst of ``count`` targets; returns victims engaged.

        The targets and the payloads come from the bot's random stream,
        the ephemeral ports from this handshaker's, so the two must be
        separate streams for each to see its draws in the order a
        connection-at-a-time scan made them.
        """
        if bot.rng is self.rng:
            raise ValueError("the bot and the handshaker share one random "
                             "stream; a scan burst needs two")
        targets = bot.scan_targets(count)
        engaged = self._engage(targets)
        hits = list(compress(targets, engaged))
        payloads = bot.attack_payloads([port for _address, port in hits])
        self._record(targets, engaged, payloads)
        self._capture(hits, payloads)
        return len(hits)

    def _engage(self, targets: list[tuple[int, int]]) -> list[bool]:
        """The fan-out rule, over a batch in order; draws nothing.

        Every target joins its port's set of distinct IPs, and engages
        once that set holds more than ``fanout_threshold`` of them —
        from the target that crosses it on, the port is redirected (the
        set only grows, so it stays redirected).
        """
        fanout = self.fanout
        redirected = self.redirected_ports
        threshold = self.fanout_threshold
        engaged: list[bool] = []
        append = engaged.append
        for address, port in targets:
            ips = fanout.get(port)
            if ips is None:
                ips = fanout[port] = set()
            ips.add(address)
            if len(ips) > threshold:
                redirected.add(port)
                append(True)
            else:
                append(False)
        return engaged

    def _record(self, targets: list[tuple[int, int]], engaged: list[bool],
                payloads: list[bytes]) -> None:
        """The trace rule: a SYN row per target, then, for an engaged one,
        a PSH/ACK row carrying its payload.

        Each row draws its ephemeral port from this handshaker's stream
        and takes the next tick, in row order; the rows land in the
        trace in one bulk append.
        """
        randbelow = self.rng._randbelow
        bot_ip = self.bot_ip
        base = self.base_time
        tick = self.ticks
        payload_of = iter(payloads).__next__
        rows: list[tuple] = []
        append = rows.append
        for (address, port), hit in zip(targets, engaged):
            tick += 1
            append((base + tick * _TICK, bot_ip, address,
                    _EPHEMERAL + randbelow(_EPHEMERAL_SPAN), port, _TCP,
                    _SYN, 0, 0, DEFAULT_TTL, 0, 0, b""))
            if hit:
                tick += 1
                append((base + tick * _TICK, bot_ip, address,
                        _EPHEMERAL + randbelow(_EPHEMERAL_SPAN), port, _TCP,
                        _PSH_ACK, 0, 0, DEFAULT_TTL, 0, 0, payload_of()))
        self.ticks = tick
        self.trace.add_rows(rows)

    def _capture(self, hits: list[tuple[int, int]],
                 payloads: list[bytes]) -> None:
        """The capture rule: one :class:`ExploitCapture` per victim
        ``(target, port)``, holding the latest payload it received."""
        latest = self._latest
        captures = self.captures
        for key, payload in zip(hits, payloads):
            existing = latest.get(key)
            if existing is None:
                latest[key] = capture = ExploitCapture(key[1], key[0], payload)
                captures.append(capture)
            else:
                existing.payload = payload

    # -- results ----------------------------------------------------------------------

    def popular_ports(self) -> list[int]:
        """Ports whose fanout crossed the threshold, most popular first."""
        fanout = self.fanout
        return sorted(self.redirected_ports,
                      key=lambda port: (len(fanout[port]), port), reverse=True)

    def distinct_payloads(self) -> list[bytes]:
        seen: set[bytes] = set()
        ordered: list[bytes] = []
        for capture in self.captures:
            if capture.payload not in seen:
                seen.add(capture.payload)
                ordered.append(capture.payload)
        return ordered
