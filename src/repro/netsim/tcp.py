"""A small TCP connection state machine for the virtual Internet.

The simulation does not need retransmission, congestion control or
windowing — C2 sessions and handshaker interactions in the paper are short
request/response exchanges on reliable links.  What it *does* need, and what
this module provides, is a faithful three-way handshake, in-order data
exchange with correct sequence/ack arithmetic, and RST/FIN teardown,
because MalNet's handshaker trick (section 2.4) hinges on completing the
handshake so that the malware sends its exploit payload.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .packet import ACK, FIN, PSH, RST, SYN, Packet, tcp_packet


class TcpState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    SYN_RECEIVED = "syn-received"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    RESET = "reset"


class TcpError(RuntimeError):
    """Raised on protocol violations (e.g. data before handshake)."""


@dataclass(slots=True)
class TcpConnection:
    """One endpoint of a TCP connection.

    Use :meth:`open` on the client, feed every incoming segment to
    :meth:`receive`, and send data with :meth:`send`.  Each method returns
    the packets this endpoint emits in response, so the caller (the virtual
    Internet) stays in charge of delivery and timing.
    """

    local: int
    remote: int
    local_port: int
    remote_port: int
    rng: random.Random
    state: TcpState = TcpState.CLOSED
    snd_next: int = 0
    rcv_next: int = 0
    inbox: bytearray = field(default_factory=bytearray)
    time: float = 0.0

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> Packet:
        """Start an active open; returns the SYN to deliver."""
        if self.state != TcpState.CLOSED:
            raise TcpError(f"open() in state {self.state}")
        self.snd_next = self.rng.randrange(1, 2**32 - 1)
        self.state = TcpState.SYN_SENT
        syn = self._segment(SYN)
        self.snd_next = (self.snd_next + 1) & 0xFFFFFFFF
        return syn

    def listen(self) -> None:
        """Passive open: wait for a SYN in CLOSED state."""
        if self.state != TcpState.CLOSED:
            raise TcpError(f"listen() in state {self.state}")

    def send(self, data: bytes) -> Packet:
        """Send application data on an established connection."""
        if self.state != TcpState.ESTABLISHED:
            raise TcpError(f"send() in state {self.state}")
        seg = self._segment(PSH | ACK, data)
        self.snd_next = (self.snd_next + len(data)) & 0xFFFFFFFF
        return seg

    def close(self) -> Packet:
        """Begin an orderly close (FIN)."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise TcpError(f"close() in state {self.state}")
        fin = self._segment(FIN | ACK)
        self.snd_next = (self.snd_next + 1) & 0xFFFFFFFF
        self.state = TcpState.FIN_WAIT
        return fin

    def abort(self) -> Packet:
        """Hard reset the connection."""
        rst = self._segment(RST)
        self.state = TcpState.RESET
        return rst

    # -- segment processing --------------------------------------------------

    def receive(self, seg: Packet) -> list[Packet]:
        """Process one incoming segment; returns any segments to emit."""
        if int(seg.flags) & RST:
            self.state = TcpState.RESET
            return []
        if self.state == TcpState.CLOSED:
            return self._on_listen(seg)
        if self.state == TcpState.SYN_SENT:
            return self._on_syn_sent(seg)
        if self.state == TcpState.SYN_RECEIVED:
            return self._on_syn_received(seg)
        if self.state in (TcpState.ESTABLISHED, TcpState.FIN_WAIT, TcpState.CLOSE_WAIT):
            return self._on_established(seg)
        return []

    def _on_listen(self, seg: Packet) -> list[Packet]:
        if not seg.is_syn:
            return [self._rst_for(seg)]
        self.rcv_next = (seg.seq + 1) & 0xFFFFFFFF
        self.snd_next = self.rng.randrange(1, 2**32 - 1)
        synack = self._segment(SYN | ACK)
        self.snd_next = (self.snd_next + 1) & 0xFFFFFFFF
        self.state = TcpState.SYN_RECEIVED
        return [synack]

    def _on_syn_sent(self, seg: Packet) -> list[Packet]:
        if not seg.is_synack:
            return []
        self.rcv_next = (seg.seq + 1) & 0xFFFFFFFF
        self.state = TcpState.ESTABLISHED
        return [self._segment(ACK)]

    def _on_syn_received(self, seg: Packet) -> list[Packet]:
        if int(seg.flags) & ACK:
            self.state = TcpState.ESTABLISHED
            # the final ACK of the handshake may already carry data
            if seg.payload:
                return self._accept_data(seg)
        return []

    def _on_established(self, seg: Packet) -> list[Packet]:
        out: list[Packet] = []
        if seg.payload:
            out.extend(self._accept_data(seg))
        if int(seg.flags) & FIN:
            self.rcv_next = (self.rcv_next + 1) & 0xFFFFFFFF
            out.append(self._segment(ACK))
            if self.state == TcpState.FIN_WAIT:
                self.state = TcpState.CLOSED
            else:
                self.state = TcpState.CLOSE_WAIT
        return out

    def _accept_data(self, seg: Packet) -> list[Packet]:
        if seg.seq != self.rcv_next:
            # out-of-order: the simulated network is in-order, so this is a
            # protocol violation by the peer; drop and re-ack.
            return [self._segment(ACK)]
        self.inbox.extend(seg.payload)
        self.rcv_next = (self.rcv_next + len(seg.payload)) & 0xFFFFFFFF
        return [self._segment(ACK)]

    # -- helpers ------------------------------------------------------------

    def read(self) -> bytes:
        """Drain and return buffered application data."""
        data = bytes(self.inbox)
        self.inbox.clear()
        return data

    @property
    def established(self) -> bool:
        return self.state == TcpState.ESTABLISHED

    def _segment(self, flags: int, payload: bytes = b"") -> Packet:
        return tcp_packet(
            src=self.local,
            dst=self.remote,
            sport=self.local_port,
            dport=self.remote_port,
            flags=flags,
            payload=payload,
            seq=self.snd_next,
            ack=self.rcv_next,
            timestamp=self.time,
        )

    def _rst_for(self, seg: Packet) -> Packet:
        return tcp_packet(
            src=self.local,
            dst=self.remote,
            sport=self.local_port,
            dport=self.remote_port,
            flags=RST,
            seq=0,
            ack=(seg.seq + 1) & 0xFFFFFFFF,
            timestamp=self.time,
        )


def handshake_pair(
    client_ip: int,
    server_ip: int,
    client_port: int,
    server_port: int,
    rng: random.Random,
    time: float = 0.0,
) -> tuple["TcpConnection", "TcpConnection", list[Packet]]:
    """Run a complete three-way handshake between two fresh endpoints.

    Returns ``(client, server, packets)`` where ``packets`` is the SYN,
    SYN-ACK, ACK exchange in order.  Both endpoints end up ESTABLISHED.
    """
    client = TcpConnection(client_ip, server_ip, client_port, server_port, rng, time=time)
    server = TcpConnection(server_ip, client_ip, server_port, client_port, rng, time=time)
    server.listen()
    trace: list[Packet] = []
    syn = client.open()
    trace.append(syn)
    for synack in server.receive(syn):
        trace.append(synack)
        for ack in client.receive(synack):
            trace.append(ack)
            server.receive(ack)
    if not (client.established and server.established):
        raise TcpError("handshake failed")
    return client, server, trace
