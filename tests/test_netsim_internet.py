"""Tests for the virtual Internet: hosts, TCP/UDP services, DNS, liveness."""

import gc
import random
import weakref
from collections import Counter

import pytest

from repro.core.study import run_study
from repro.netsim.addresses import ip_to_int
from repro.netsim.capture import Capture
from repro.netsim.internet import (
    ClientSession,
    Listener,
    Network,
    STUDY_EPOCH,
    ServerSession,
    SimClock,
    VirtualInternet,
)
from repro.netsim.packet import Packet, Protocol, icmp_packet, udp_packet
from repro.netsim.tcp import TcpConnection

CLIENT_IP = ip_to_int("198.51.100.10")
SERVER_IP = ip_to_int("203.0.113.10")


class EchoTcp:
    """Echoes client data back with a prefix."""

    def on_connect(self, session):
        session.state["greeted"] = True

    def on_data(self, session, data):
        session.send(b"echo:" + data)


class EchoUdp:
    def on_datagram(self, host, pkt, now):
        return [b"pong:" + pkt.payload]


@pytest.fixture
def network():
    network = Network()
    network.add_host(CLIENT_IP, "client")
    server = network.add_host(SERVER_IP, "server")
    server.bind(Listener(port=7, protocol=Protocol.TCP, service=EchoTcp()))
    server.bind(Listener(port=7, protocol=Protocol.UDP, service=EchoUdp()))
    return network


@pytest.fixture
def net(network):
    return VirtualInternet(network, random.Random(0))


class TestClock:
    def test_starts_at_epoch(self):
        assert SimClock().now == STUDY_EPOCH

    def test_advance(self):
        clock = SimClock()
        clock.advance(10)
        assert clock.now == STUDY_EPOCH + 10

    def test_no_backwards(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1)
        with pytest.raises(ValueError):
            clock.advance_to(STUDY_EPOCH - 1)


class TestTcpService:
    def test_connect_and_echo(self, net):
        trace = Capture()
        session = net.tcp_connect(CLIENT_IP, SERVER_IP, 7, trace)
        assert session is not None
        session.send(b"hello")
        assert session.recv() == b"echo:hello"

    def test_trace_contains_handshake_and_data(self, net):
        trace = Capture()
        session = net.tcp_connect(CLIENT_IP, SERVER_IP, 7, trace)
        session.send(b"hi")
        flags_seen = [p.flags for p in trace if p.protocol == Protocol.TCP]
        assert any(p.is_syn for p in trace)
        assert any(p.is_synack for p in trace)
        assert any(p.payload == b"hi" for p in trace)
        assert any(p.payload == b"echo:hi" for p in trace)
        assert len(flags_seen) >= 5

    def test_timestamps_monotonic(self, net):
        trace = Capture()
        session = net.tcp_connect(CLIENT_IP, SERVER_IP, 7, trace)
        session.send(b"a")
        session.send(b"b")
        times = [p.timestamp for p in trace]
        assert times == sorted(times)

    def test_connect_closed_port_refused(self, net):
        trace = Capture()
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 9999, trace) is None
        from repro.netsim.packet import TcpFlags

        assert any(p.flags & TcpFlags.RST for p in trace)

    def test_connect_unknown_host_silent(self, net):
        trace = Capture()
        assert net.tcp_connect(CLIENT_IP, ip_to_int("192.0.2.99"), 7, trace) is None
        assert len(trace) == 1  # just our SYN, no reply

    def test_offline_host_unreachable(self, net):
        server = net.host(SERVER_IP)
        server.set_lifetime(net.clock.now + 1000, net.clock.now + 2000)
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 7) is None
        net.clock.advance(1500)
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 7) is not None
        net.clock.advance(1000)
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 7) is None

    def test_elusive_listener_gate(self, net):
        server = net.host(SERVER_IP)
        gate = {"open": False}
        server.bind(
            Listener(
                port=666, protocol=Protocol.TCP, service=EchoTcp(),
                accepts=lambda now: gate["open"],
            )
        )
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 666) is None
        gate["open"] = True
        assert net.tcp_connect(CLIENT_IP, SERVER_IP, 666) is not None

    def test_banner_sent_on_connect(self, net):
        server = net.host(SERVER_IP)
        server.bind(
            Listener(port=2323, protocol=Protocol.TCP, service=EchoTcp(),
                     banner=b"login: ")
        )
        session = net.tcp_connect(CLIENT_IP, SERVER_IP, 2323)
        assert session.recv() == b"login: "

    def test_close_session(self, net):
        session = net.tcp_connect(CLIENT_IP, SERVER_IP, 7)
        session.close()
        assert session.closed
        with pytest.raises(ConnectionError):
            session.send(b"late")

    @pytest.mark.parametrize("closed", [True, False])
    def test_a_session_pair_is_no_reference_cycle(self, net, closed):
        gc.disable()
        try:
            session = net.tcp_connect(CLIENT_IP, SERVER_IP, 7, Capture())
            session.send(b"hi")
            if closed:
                session.close()
            refs = [weakref.ref(session), weakref.ref(session._server)]
            del session
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def test_a_study_leaves_no_session_for_the_collector(smoke_world):
    """Every TCP session pair of a smoke study, with its connections and
    packets, is freed by reference counting: the collector finds none."""
    gc.collect()
    gc.disable()
    try:
        run_study(smoke_world)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        left = Counter(type(obj).__name__ for obj in gc.garbage
                       if isinstance(obj, (ClientSession, ServerSession,
                                           TcpConnection, Packet)))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == {}


class TestUdpAndIcmp:
    def test_udp_echo(self, net):
        trace = Capture()
        probe = udp_packet(CLIENT_IP, SERVER_IP, 4000, 7, b"ping")
        replies = net.send_datagram(probe, trace)
        assert len(replies) == 1
        assert replies[0].payload == b"pong:ping"
        assert len(trace) == 2

    def test_udp_to_closed_port_dropped(self, net):
        probe = udp_packet(CLIENT_IP, SERVER_IP, 4000, 9999, b"ping")
        assert net.send_datagram(probe) == []

    def test_icmp_echo(self, net):
        ping = icmp_packet(CLIENT_IP, SERVER_IP, icmp_type=8, payload=b"abc")
        replies = net.send_datagram(ping)
        assert len(replies) == 1
        assert replies[0].icmp_type == 0
        assert replies[0].payload == b"abc"

    def test_icmp_to_offline_host_dropped(self, net):
        net.host(SERVER_IP).set_lifetime(0, 1)  # long gone
        ping = icmp_packet(CLIENT_IP, SERVER_IP, icmp_type=8)
        assert net.send_datagram(ping) == []


class TestDns:
    def test_lookup_registered(self, network, net):
        network.zones.register("c2.example", SERVER_IP)
        response = net.dns_lookup(CLIENT_IP, "c2.example")
        assert response.addresses == [SERVER_IP]

    def test_lookup_missing_is_nxdomain(self, net):
        assert net.dns_lookup(CLIENT_IP, "nope.example").is_nxdomain

    def test_lookup_traffic_recorded(self, network, net):
        network.zones.register("c2.example", SERVER_IP)
        trace = Capture()
        net.dns_lookup(CLIENT_IP, "c2.example", trace)
        assert len(trace) == 2
        assert trace[0].dport == 53 and trace[1].sport == 53


class TestBackbone:
    def test_duplicate_host_rejected(self, network):
        with pytest.raises(ValueError):
            network.add_host(SERVER_IP)

    def test_engine_reads_the_network(self, network, net):
        assert net.host(SERVER_IP) is network.host(SERVER_IP)
        assert not hasattr(net, "add_host")

    def test_duplicate_bind_rejected(self, net):
        with pytest.raises(ValueError):
            net.host(SERVER_IP).bind(
                Listener(port=7, protocol=Protocol.TCP, service=EchoTcp())
            )
