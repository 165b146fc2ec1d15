"""Property-based tests of TCP stream integrity and session behavior."""

import random

from hypothesis import given, settings, strategies as st

from repro.netsim.addresses import ip_to_int
from repro.netsim.internet import Listener, Network, VirtualInternet
from repro.netsim.packet import Protocol
from repro.netsim.tcp import handshake_pair

CLIENT = ip_to_int("198.51.100.1")
SERVER = ip_to_int("203.0.113.1")

payload_lists = st.lists(st.binary(min_size=1, max_size=128), min_size=1,
                         max_size=12)


class TestStreamIntegrity:
    @given(payload_lists)
    def test_client_stream_reassembles_exactly(self, chunks):
        client, server, _ = handshake_pair(CLIENT, SERVER, 40000, 80,
                                           random.Random(0))
        for chunk in chunks:
            for ack in server.receive(client.send(chunk)):
                client.receive(ack)
        assert server.read() == b"".join(chunks)

    @given(payload_lists, payload_lists)
    def test_bidirectional_streams_independent(self, up, down):
        client, server, _ = handshake_pair(CLIENT, SERVER, 40000, 80,
                                           random.Random(0))
        pairs = list(zip(up, down))
        for chunk_up, chunk_down in pairs:
            for ack in server.receive(client.send(chunk_up)):
                client.receive(ack)
            for ack in client.receive(server.send(chunk_down)):
                server.receive(ack)
        assert server.read() == b"".join(u for u, _d in pairs)
        assert client.read() == b"".join(d for _u, d in pairs)

    @given(payload_lists, st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_seqs_do_not_corrupt_stream(self, chunks, noise_seq):
        from repro.netsim.packet import TcpFlags, tcp_packet

        client, server, _ = handshake_pair(CLIENT, SERVER, 40000, 80,
                                           random.Random(0))
        # interleave a stray out-of-window segment before real data
        stray = tcp_packet(CLIENT, SERVER, 40000, 80,
                           TcpFlags.PSH | TcpFlags.ACK, b"NOISE",
                           seq=(client.snd_next + 7919 + noise_seq % 1000)
                           % 2**32)
        server.receive(stray)
        for chunk in chunks:
            for ack in server.receive(client.send(chunk)):
                client.receive(ack)
        data = server.read()
        assert b"NOISE" not in data or b"NOISE" in b"".join(chunks)
        assert data == b"".join(chunks)


class EchoService:
    def on_connect(self, session):
        pass

    def on_data(self, session, data):
        session.send(data)


class TestSessionProperties:
    @settings(max_examples=25, deadline=None)
    @given(payload_lists)
    def test_echo_session_roundtrip(self, chunks):
        network = Network()
        internet = VirtualInternet(network, random.Random(0))
        network.add_host(CLIENT)
        host = network.add_host(SERVER)
        host.bind(Listener(port=7, protocol=Protocol.TCP,
                           service=EchoService()))
        session = internet.tcp_connect(CLIENT, SERVER, 7)
        received = b""
        for chunk in chunks:
            session.send(chunk)
            received += session.recv()
        assert received == b"".join(chunks)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=65535), min_size=1,
                    max_size=6, unique=True))
    def test_only_bound_ports_answer(self, ports):
        network = Network()
        internet = VirtualInternet(network, random.Random(0))
        network.add_host(CLIENT)
        host = network.add_host(SERVER)
        bound = ports[: len(ports) // 2 + 1]
        for port in bound:
            host.bind(Listener(port=port, protocol=Protocol.TCP,
                               service=EchoService()))
        for port in ports:
            session = internet.tcp_connect(CLIENT, SERVER, port)
            assert (session is not None) == (port in bound)
