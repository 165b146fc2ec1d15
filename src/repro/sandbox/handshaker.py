"""The handshaker: exploit extraction by impersonating victims (§2.4).

The trick: watch which destination ports the malware scans; once a port
has been tried against more than ``fanout_threshold`` distinct IPs (the
paper uses 20), open a local fake victim on that port and redirect the
malware's next connections there.  The malware completes the TCP
handshake with the fake target and sends its first data packets — which
contain the exploit.

:meth:`Handshaker.scan` runs a whole scan burst of a bot as one batched
kernel: draw the targets, decide redirection for the batch, draw the
payloads and the ephemeral ports, hand the trace the burst as one lazy
:class:`ScanSegment` and update the victim mapping.  Every draw is the
one a one-connection-at-a-time scan made, in its order, through the
word kernels of :mod:`repro.determinism`, so the trace, the victims and
both random streams are exactly what that scan produced.  The segment
becomes trace rows only when someone reads the trace (``repro pcap``
does; a study never does), and the ports are decoded then from the
words drawn at scan time.
"""

from __future__ import annotations

import random
from itertools import compress

from ..botnet.bot import Bot
from ..determinism import accepted_high16, draw_accepted
from ..netsim.capture import Capture
from ..netsim.packet import ACK, DEFAULT_TTL, PSH, SYN, Protocol

#: ports contacted on more than this many distinct IPs get a fake victim
DEFAULT_FANOUT_THRESHOLD = 20

#: seconds between consecutive trace rows
_TICK = 0.005
#: ephemeral source ports: ``_EPHEMERAL + _randbelow(16384)`` is
#: ``randrange(49152, 65536)``; an accepted word ``w`` draws ``w >> 17``
#: from it, ``hi << 6 | lo >> 2`` of its ``accepted_high16`` bytes (see
#: :mod:`repro.determinism`)
_EPHEMERAL = 49152
_TCP = int(Protocol.TCP)
_PSH_ACK = PSH | ACK


class ScanSegment:
    """One scan burst's trace rows, not yet built.

    The rule: a SYN row per target, then, for an engaged one, a PSH/ACK
    row carrying its payload; row ``i`` of the burst takes tick
    ``first_tick + i + 1`` and the ``i``-th ephemeral port word.
    Everything a row holds was drawn at scan time, so the rows
    :meth:`rows` builds are the rows an eager trace held.
    """

    __slots__ = ("bot_ip", "base_time", "first_tick", "targets", "engaged",
                 "payloads", "port_words")

    def __init__(self, bot_ip: int, base_time: float, first_tick: int,
                 targets: list[tuple[int, int]], engaged: list[bool],
                 payloads: list[bytes], port_words: bytes):
        self.bot_ip = bot_ip
        self.base_time = base_time
        self.first_tick = first_tick
        self.targets = targets
        self.engaged = engaged
        self.payloads = payloads
        #: a :func:`~repro.determinism.draw_accepted` run, one word a row
        self.port_words = port_words

    def __len__(self) -> int:
        return len(self.targets) + len(self.payloads)

    def rows(self) -> list[tuple]:
        """The burst's 13-field column tuples, in recording order."""
        bot_ip = self.bot_ip
        base = self.base_time
        tick = self.first_tick
        hi, lo = accepted_high16(self.port_words)
        port_of = iter([_EPHEMERAL + (h << 6 | l >> 2)
                        for h, l in zip(hi, lo)]).__next__
        payload_of = iter(self.payloads).__next__
        rows: list[tuple] = []
        append = rows.append
        for (address, port), hit in zip(self.targets, self.engaged):
            tick += 1
            append((base + tick * _TICK, bot_ip, address, port_of(), port,
                    _TCP, SYN, 0, 0, DEFAULT_TTL, 0, 0, b""))
            if hit:
                tick += 1
                append((base + tick * _TICK, bot_ip, address, port_of(),
                        port, _TCP, _PSH_ACK, 0, 0, DEFAULT_TTL, 0, 0,
                        payload_of()))
        return rows


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
        #: ``(target, port)`` -> the latest payload that victim received,
        #: in order of first contact
        self.victims: dict[tuple[int, int], bytes] = {}

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
        self.victims.update(zip(hits, payloads))
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
        """Draw one ephemeral port word per trace row from this
        handshaker's stream, and hand the trace the burst as one
        :class:`ScanSegment`."""
        segment = ScanSegment(
            self.bot_ip, self.base_time, self.ticks, targets, engaged,
            payloads, draw_accepted(self.rng, len(targets) + len(payloads)))
        self.ticks += len(segment)
        self.trace.add_segment(segment)

    # -- results ----------------------------------------------------------------------

    def popular_ports(self) -> list[int]:
        """Ports whose fanout crossed the threshold, most popular first."""
        fanout = self.fanout
        return sorted(self.redirected_ports,
                      key=lambda port: (len(fanout[port]), port), reverse=True)
