"""The virtual Internet: hosts, services, delivery, and the simulation clock.

This is the closed world in which the whole study runs.  Hosts own integer
IPv4 addresses and expose TCP/UDP/ICMP services; the
:class:`VirtualInternet` mediates connections and datagrams, stamps
packets with simulation time, and records what crosses it into the
caller's per-session traces so the sandbox can produce pcaps exactly like
a real capture interface would.

A generated world holds only a :class:`Network`: its host table and name
zones.  Each unit of work (a sample's live analysis, a probe slot) drives
traffic through a :class:`VirtualInternet` of its own over that network,
which owns the clock, the stream and the fault and metrics bindings that
traffic writes.

Time is explicit.  :class:`SimClock` counts seconds from the study epoch
(2021-03-01 00:00 UTC, matching the paper's collection window) and every
service callback receives the current time, which is how C2 "elusiveness"
(section 3.2) and server lifespans enter the picture.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass, field
from typing import Callable, Protocol as TypingProtocol

from .addresses import ephemeral_port, int_to_ip
from .capture import Capture
from .dns import DnsQuery, DnsResponse, Resolver, Zones, random_transaction_id
from .packet import (
    ACK, RST, Packet, Protocol, icmp_packet, tcp_packet, udp_packet,
)
from .tcp import TcpConnection

#: Simulation epoch: 2021-03-01T00:00:00Z as a Unix timestamp.
STUDY_EPOCH = 1614556800.0
SECONDS_PER_DAY = 86400.0


_EMPTY_SLOT: tuple = ()


class TimeWheel:
    """Slot-indexed schedule: pending items bucketed by time slot.

    The simulation's recurring schedules (C2 attack windows, host online
    windows) were linear scans per query — O(all items) at every poll,
    almost all of it misses.  A wheel buckets each item under every slot
    its active window overlaps, so a query touches only the items that
    could possibly be due *now* (one dict lookup — an empty slot costs
    O(1) regardless of how many items exist elsewhere on the timeline).

    Items are indexed by *slot*, which is coarser than their exact
    windows: callers re-check the precise predicate (``due(now)``,
    ``is_online(now)``) on the handful of candidates a slot returns.
    Within a slot, items keep insertion order, so a wheel filled in a
    canonical order yields candidates in that same order — which is what
    keeps wheel-backed lookups byte-identical to the scans they replace.
    """

    __slots__ = ("slot_seconds", "_slots")

    def __init__(self, slot_seconds: float = 3600.0):
        if slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        self.slot_seconds = slot_seconds
        self._slots: dict[int, list] = {}

    def slot_of(self, when: float) -> int:
        return int(when // self.slot_seconds)

    def add_window(self, start: float, end: float, item) -> None:
        """Index ``item`` under every slot overlapping ``[start, end)``.

        Callers clamp open-ended windows to their horizon first; slot
        coverage errs on the inclusive side (float boundaries may add one
        extra slot), which is harmless because consumers re-check exact
        windows on the candidates.
        """
        if end <= start:
            return
        if not (math.isfinite(start) and math.isfinite(end)):
            raise ValueError("window bounds must be finite (clamp first)")
        first = self.slot_of(start)
        last = self.slot_of(end)
        if last * self.slot_seconds == end:
            last -= 1  # end is exclusive and falls exactly on a boundary
        slots = self._slots
        for slot in range(first, last + 1):
            slots.setdefault(slot, []).append(item)

    def items_at(self, when: float):
        """Candidates indexed under the slot containing ``when``."""
        return self._slots.get(self.slot_of(when), _EMPTY_SLOT)

    def __len__(self) -> int:
        """Number of occupied slots."""
        return len(self._slots)


class SimClock:
    """Monotonic simulation clock in seconds since the Unix epoch."""

    def __init__(self, start: float = STUDY_EPOCH):
        self._now = start

    @property
    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("clock cannot go backwards")
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        if when < self._now:
            raise ValueError("clock cannot go backwards")
        self._now = when
        return self._now


class TcpService(TypingProtocol):
    """Server-side application attached to a TCP listener."""

    def on_connect(self, session: "ServerSession") -> None:
        """Called when a client completes the handshake."""

    def on_data(self, session: "ServerSession", data: bytes) -> None:
        """Called with each chunk of client application data."""


def always_accepts(now: float) -> bool:
    """The default :attr:`Listener.accepts` gate: never elusive."""
    return True


@dataclass
class Listener:
    """A bound TCP or UDP port on a host."""

    port: int
    protocol: Protocol
    service: object
    #: Gate called per connection attempt; lets C2 servers be "elusive".
    accepts: Callable[[float], bool] = always_accepts
    banner: bytes = b""


class Host:
    """A network endpoint: an address plus its listeners and liveness."""

    def __init__(self, address: int, name: str = ""):
        self.address = address
        self.name = name or int_to_ip(address)
        self.listeners: dict[tuple[Protocol, int], Listener] = {}
        #: host is routable within [online_from, online_until)
        self.online_from = float("-inf")
        self.online_until = float("inf")

    def bind(self, listener: Listener) -> None:
        key = (listener.protocol, listener.port)
        if key in self.listeners:
            raise ValueError(f"port already bound: {self.name} {key}")
        self.listeners[key] = listener

    def listener(self, protocol: Protocol, port: int) -> Listener | None:
        return self.listeners.get((protocol, port))

    def is_online(self, now: float) -> bool:
        return self.online_from <= now < self.online_until

    def set_lifetime(self, online_from: float, online_until: float) -> None:
        self.online_from = online_from
        self.online_until = online_until


@dataclass
class ServerSession:
    """Server-side handle passed to :class:`TcpService` callbacks."""

    internet: "VirtualInternet"
    conn: TcpConnection
    peer: int
    peer_port: int
    trace: Capture
    closed: bool = False
    #: scratch space for per-connection service state
    state: dict = field(default_factory=dict)

    @property
    def now(self) -> float:
        return self.internet.clock.now

    def send(self, data: bytes) -> None:
        """Send application data to the connected client."""
        if self.closed:
            return
        self.internet._server_send(self, data)


class ClientSession:
    """Client-side handle returned by :meth:`VirtualInternet.tcp_connect`."""

    def __init__(
        self,
        internet: "VirtualInternet",
        conn: TcpConnection,
        server: ServerSession,
        trace: Capture,
    ):
        self._internet = internet
        self.conn = conn
        self._server = server
        self.trace = trace
        self._inbox = bytearray()
        self.closed = False

    @property
    def remote(self) -> int:
        return self.conn.remote

    @property
    def remote_port(self) -> int:
        return self.conn.remote_port

    def send(self, data: bytes) -> None:
        """Send application data to the server and deliver it."""
        if self.closed:
            raise ConnectionError("session closed")
        self._internet._client_send(self, self._server, data)

    def recv(self) -> bytes:
        """Drain any data the server has sent so far."""
        data = bytes(self._inbox)
        self._inbox.clear()
        return data

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._internet._client_close(self, self._server)

    # internal: called by the internet when server data arrives
    def _deliver(self, data: bytes) -> None:
        self._inbox.extend(data)


class Network:
    """A world's topology: its hosts and its name zones.

    The world generator builds it and no run writes it: each run drives
    traffic over it through its own :class:`VirtualInternet`, so any
    number of runs can share one network, in threads or forked processes.
    """

    def __init__(self) -> None:
        self.hosts: dict[int, Host] = {}
        self.zones = Zones()

    def add_host(self, address: int, name: str = "") -> Host:
        if address in self.hosts:
            raise ValueError(f"duplicate host {int_to_ip(address)}")
        host = self.hosts[address] = Host(address, name)
        return host

    def host(self, address: int) -> Host | None:
        return self.hosts.get(address)


class VirtualInternet:
    """One unit of work's traffic engine: routes packets between the
    hosts of a :class:`Network` and records observable traffic.

    The network is only read.  What traffic writes is the engine's own:
    a clock at ``start``, the stream ``rng``, and a resolver over the
    network's zones bound to the run's fault injector and metrics.
    """

    #: nominal one-way delay applied between request and response
    LATENCY = 0.02

    def __init__(self, network: Network, rng: random.Random,
                 faults=None, metrics=None, start: float = STUDY_EPOCH):
        self._hosts = network.hosts
        self.rng = rng
        self.clock = SimClock(start)
        #: optional fault injector (repro.netsim.faults)
        self.faults = faults
        self.resolver = Resolver(network.zones, faults, metrics)

    def host(self, address: int) -> Host | None:
        return self._hosts.get(address)

    # -- recording ------------------------------------------------------------

    @staticmethod
    def _record(pkt: Packet, trace: Capture | None) -> None:
        if trace is not None:
            trace.add(pkt)

    def _stamp(self) -> float:
        """Advance the clock by the link latency and return the new time."""
        return self.clock.advance(self.LATENCY)

    # -- ICMP / raw UDP -------------------------------------------------------

    def send_datagram(self, pkt: Packet, trace: Capture | None = None) -> list[Packet]:
        """Deliver one UDP/ICMP packet; returns replies (also recorded)."""
        pkt.timestamp = self._stamp()
        self._record(pkt, trace)
        if self.faults is not None and self.faults.packet_lost(
                pkt.dst, pkt.timestamp):
            return []  # lost in transit: recorded at the source, never delivered
        host = self._hosts.get(pkt.dst)
        if host is None or not host.is_online(pkt.timestamp):
            return []
        replies: list[Packet] = []
        if pkt.protocol == Protocol.UDP:
            listener = host.listener(Protocol.UDP, pkt.dport)
            if listener is None or not listener.accepts(pkt.timestamp):
                return []
            service = listener.service
            payloads = service.on_datagram(host, pkt, pkt.timestamp)
            for payload in payloads:
                reply = udp_packet(
                    src=pkt.dst, dst=pkt.src, sport=pkt.dport, dport=pkt.sport,
                    payload=payload, timestamp=self._stamp(),
                )
                self._record(reply, trace)
                replies.append(reply)
        elif pkt.protocol == Protocol.ICMP and pkt.icmp_type == 8:
            reply = icmp_packet(
                src=pkt.dst, dst=pkt.src, icmp_type=0, payload=pkt.payload,
                timestamp=self._stamp(),
            )
            self._record(reply, trace)
            replies.append(reply)
        return replies

    # -- DNS --------------------------------------------------------------------

    def dns_lookup(
        self, client: int, name: str, trace: Capture | None = None
    ) -> DnsResponse:
        """Resolve ``name`` via the backbone resolver, with wire traffic."""
        txid = random_transaction_id(self.rng)
        query = DnsQuery(txid, name)
        sport = ephemeral_port(self.rng)
        query_pkt = udp_packet(
            src=client, dst=self.resolver_address, sport=sport, dport=53,
            payload=query.encode(), timestamp=self._stamp(),
        )
        self._record(query_pkt, trace)
        response = self.resolver.answer(query, now=self.clock.now)
        reply_pkt = udp_packet(
            src=self.resolver_address, dst=client, sport=53, dport=sport,
            payload=response.encode(), timestamp=self._stamp(),
        )
        self._record(reply_pkt, trace)
        return response

    #: address of the backbone resolver (a stable, reserved-looking value)
    resolver_address = 0x08080808  # 8.8.8.8

    # -- TCP ----------------------------------------------------------------------

    def tcp_connect(
        self,
        client_ip: int,
        server_ip: int,
        server_port: int,
        trace: Capture | None = None,
        client_port: int | None = None,
    ) -> ClientSession | None:
        """Attempt a TCP connection; ``None`` on timeout/refusal.

        On refusal a RST is recorded; on an offline host the SYN simply
        goes unanswered (like a dropped probe on the real Internet).
        """
        sport = client_port if client_port is not None else ephemeral_port(self.rng)
        now = self._stamp()
        client = TcpConnection(client_ip, server_ip, sport, server_port, self.rng, time=now)
        syn = client.open()
        self._record(syn, trace)
        if self.faults is not None and self.faults.connection_fails(
                server_ip, now):
            return None  # SYN lost in a fault window: silent timeout
        host = self._hosts.get(server_ip)
        if host is None or not host.is_online(now):
            return None  # silent drop: no host there
        listener = host.listener(Protocol.TCP, server_port)
        if listener is None:
            rst = tcp_packet(
                src=server_ip, dst=client_ip, sport=server_port, dport=sport,
                flags=RST | ACK,
                ack=(syn.seq + 1) & 0xFFFFFFFF, timestamp=self._stamp(),
            )
            self._record(rst, trace)
            return None
        if not listener.accepts(now):
            return None  # elusive server: SYN dropped
        server_conn = TcpConnection(
            server_ip, client_ip, server_port, sport, self.rng, time=now
        )
        server_conn.listen()
        for synack in server_conn.receive(syn):
            synack.timestamp = self._stamp()
            self._record(synack, trace)
            for ack in client.receive(synack):
                ack.timestamp = self._stamp()
                self._record(ack, trace)
                server_conn.receive(ack)
        if not (client.established and server_conn.established):
            return None
        session_trace = trace if trace is not None else Capture()
        server_session = ServerSession(
            internet=self, conn=server_conn, peer=client_ip, peer_port=sport,
            trace=session_trace,
        )
        client_session = ClientSession(self, client, server_session, session_trace)
        # the client session owns its server side; the way back is weak,
        # so a session pair is no reference cycle and is freed, with its
        # connections and trace, as soon as the caller lets the client go
        server_session.state["client"] = weakref.ref(client_session)
        service = listener.service
        if listener.banner:
            server_session.send(listener.banner)
        service.on_connect(server_session)
        server_session.state["service"] = service
        return client_session

    # -- internal TCP plumbing ----------------------------------------------

    def _client_send(
        self, client: ClientSession, server: ServerSession, data: bytes
    ) -> None:
        seg = client.conn.send(data)
        seg.timestamp = self._stamp()
        self._record(seg, client.trace)
        for ack in server.conn.receive(seg):
            ack.timestamp = self._stamp()
            self._record(ack, client.trace)
            client.conn.receive(ack)
        payload = server.conn.read()
        if payload and not server.closed:
            service = server.state.get("service")
            if service is not None:
                service.on_data(server, payload)

    def _server_send(self, server: ServerSession, data: bytes) -> None:
        seg = server.conn.send(data)
        seg.timestamp = self._stamp()
        self._record(seg, server.trace)
        client: ClientSession = server.state["client"]()
        for ack in client.conn.receive(seg):
            ack.timestamp = self._stamp()
            self._record(ack, server.trace)
            server.conn.receive(ack)
        client._deliver(client.conn.read())

    def _client_close(self, client: ClientSession, server: ServerSession) -> None:
        if not client.conn.established:
            return
        fin = client.conn.close()
        fin.timestamp = self._stamp()
        self._record(fin, client.trace)
        for reply in server.conn.receive(fin):
            reply.timestamp = self._stamp()
            self._record(reply, client.trace)
            client.conn.receive(reply)
        server.closed = True
