"""InetSim-style fake Internet for the sandbox's closed analysis mode.

The C2-detection experiment runs with no real connectivity: "we 'fake' it
to the sandbox ... we deploy InetSim to simulate services like DNS and
http" (section 2.6a).  :class:`FakeInternetAdapter` implements the bot's
:class:`~repro.botnet.bot.NetworkAdapter` interface so that *every* DNS
name resolves, *every* TCP port accepts, and HTTP-ish requests get a
plausible answer — enough to keep a suspicious binary running while its
C2-bound traffic is captured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.addresses import ephemeral_port, ip_to_int
from ..netsim.capture import Capture
from ..netsim.packet import ACK, PSH, Packet

#: All faked endpoints resolve into this documentation block, so analysis
#: can tell sandbox-synthesized addresses from world addresses.
FAKE_NET_BASE = ip_to_int("198.18.0.0")  # RFC 2544 benchmark block

_PSH_ACK = PSH | ACK


@dataclass
class FakeConversation:
    """One captured exchange with a faked endpoint."""

    dst: int
    port: int
    client_bytes: bytes = b""
    server_bytes: bytes = b""


class _FakeSession:
    """BotSession endpoint backed by canned responses."""

    def __init__(self, adapter: "FakeInternetAdapter", dst: int, port: int,
                 trace: Capture | None):
        self._adapter = adapter
        self.conversation = FakeConversation(dst, port)
        self._trace = trace
        self._pending = b""
        self._sport = ephemeral_port(adapter.rng)
        self.closed = False

    def send(self, data: bytes) -> None:
        if self.closed:
            return
        self.conversation.client_bytes += data
        self._record(self._adapter.bot_ip, self.conversation.dst,
                     self._sport, self.conversation.port, data)
        reply = self._adapter._fake_reply(self.conversation, data)
        if reply:
            self.conversation.server_bytes += reply
            self._record(self.conversation.dst, self._adapter.bot_ip,
                         self.conversation.port, self._sport, reply)
            self._pending += reply

    def recv(self) -> bytes:
        data, self._pending = self._pending, b""
        return data

    def close(self) -> None:
        self.closed = True

    def _record(self, src: int, dst: int, sport: int, dport: int,
                payload: bytes) -> None:
        if self._trace is None:
            return
        self._adapter.ticks += 1
        # columnar row, not a Packet: C2-phase traffic is consumed by the
        # flow table's field-level reader and usually never read as objects
        self._trace.add_tcp(src, dst, sport, dport, _PSH_ACK, payload, 0, 0,
                            self._adapter.base_time +
                            self._adapter.ticks * 0.01)


class FakeInternetAdapter:
    """A NetworkAdapter where everything exists and everything answers."""

    def __init__(self, bot_ip: int, rng: random.Random, base_time: float = 0.0):
        self.bot_ip = bot_ip
        self.rng = rng
        self.base_time = base_time
        self.ticks = 0
        self.dns_log: list[str] = []
        self.conversations: list[FakeConversation] = []
        self.datagrams: list[Packet] = []
        self._name_cache: dict[str, int] = {}

    @property
    def last_timestamp(self) -> float:
        """Time of the latest packet recorded (``base_time`` before any)."""
        return self.base_time + self.ticks * 0.01

    @property
    def name_bindings(self) -> dict[str, int]:
        """Names resolved so far and the fake addresses handed out."""
        return dict(self._name_cache)

    # -- NetworkAdapter interface ------------------------------------------------

    def clock_now(self) -> float:
        """Simulation time inside the sandbox (DGA bots pick today's list)."""
        return self.base_time

    def dns_lookup(self, name: str, trace: Capture | None = None) -> int:
        """Every name resolves (InetSim behavior), stably per name."""
        self.dns_log.append(name)
        if name not in self._name_cache:
            self._name_cache[name] = FAKE_NET_BASE + 1 + len(self._name_cache)
        address = self._name_cache[name]
        if trace is not None:
            self.ticks += 1
            trace.add_udp(self.bot_ip, FAKE_NET_BASE, 5353, 53,
                          name.encode("ascii"),
                          timestamp=self.base_time + self.ticks * 0.01)
        return address

    def tcp_connect(self, dst: int, port: int, trace: Capture | None = None):
        session = _FakeSession(self, dst, port, trace)
        self.conversations.append(session.conversation)
        return session

    def send_datagram(self, pkt: Packet, trace: Capture | None = None) -> None:
        self.datagrams.append(pkt)
        if trace is not None:
            self.ticks += 1
            pkt.timestamp = self.base_time + self.ticks * 0.01
            trace.add(pkt)

    # -- canned service behavior ----------------------------------------------------

    def _fake_reply(self, conversation: FakeConversation, data: bytes) -> bytes:
        if conversation.port in (80, 8080):
            if data.startswith((b"GET", b"POST", b"HEAD")):
                return (b"HTTP/1.0 200 OK\r\nServer: INetSim HTTP\r\n"
                        b"Content-Length: 2\r\n\r\nOK")
        if conversation.port in (23, 2323):
            return b"login: "
        # generic TCP service: echo-free banner so text bots keep talking
        if not conversation.server_bytes:
            return b"220 service ready\r\n"
        return b""
