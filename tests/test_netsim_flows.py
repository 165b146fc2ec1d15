"""Tests for flow aggregation."""

import random

from repro.netsim.addresses import ip_to_int
from repro.netsim.capture import Capture
from repro.netsim.flows import FlowKey, FlowTable
from repro.netsim.packet import Protocol, TcpFlags, tcp_packet, udp_packet
from repro.netsim.tcp import handshake_pair

BOT = ip_to_int("198.51.100.1")
C2 = ip_to_int("203.0.113.1")
VICTIM = ip_to_int("192.0.2.1")


class TestFlowKey:
    def test_direction_normalized(self):
        fwd = tcp_packet(BOT, C2, 4000, 23, TcpFlags.SYN)
        rev = tcp_packet(C2, BOT, 23, 4000, TcpFlags.ACK)
        assert FlowKey.for_packet(fwd) == FlowKey.for_packet(rev)

    def test_distinct_ports_distinct_flows(self):
        a = tcp_packet(BOT, C2, 4000, 23, TcpFlags.SYN)
        b = tcp_packet(BOT, C2, 4001, 23, TcpFlags.SYN)
        assert FlowKey.for_packet(a) != FlowKey.for_packet(b)


class TestFlowTable:
    def handshake_capture(self):
        rng = random.Random(0)
        _, _, trace = handshake_pair(BOT, C2, 4000, 23, rng)
        return Capture(trace)

    def test_handshake_is_one_flow(self):
        table = FlowTable.from_capture(self.handshake_capture())
        assert len(table) == 1
        (flow,) = table.flows()
        assert flow.initiator == BOT
        assert flow.responder == C2
        assert flow.syn_seen and flow.synack_seen
        assert flow.bidirectional

    def test_counts_and_bytes(self):
        table = FlowTable.from_capture(self.handshake_capture())
        (flow,) = table.flows()
        assert flow.packets_fwd == 2  # SYN + ACK
        assert flow.packets_rev == 1  # SYN-ACK
        assert flow.total_packets == 3
        assert flow.total_bytes == sum(p.size for p in self.handshake_capture())

    def test_payload_reassembly_by_direction(self):
        table = FlowTable()
        table.observe(udp_packet(BOT, C2, 4000, 53, b"que", timestamp=0.0))
        table.observe(udp_packet(C2, BOT, 53, 4000, b"ans", timestamp=0.1))
        table.observe(udp_packet(BOT, C2, 4000, 53, b"ry", timestamp=0.2))
        (flow,) = table.flows()
        assert bytes(flow.payload_fwd) == b"query"
        assert bytes(flow.payload_rev) == b"ans"

    def test_rst_and_fin_flags_recorded(self):
        table = FlowTable()
        table.observe(tcp_packet(BOT, C2, 1, 2, TcpFlags.RST, timestamp=0))
        table.observe(tcp_packet(BOT, C2, 3, 2, TcpFlags.FIN | TcpFlags.ACK, timestamp=0))
        flows = table.flows()
        assert any(f.rst_seen for f in flows)
        assert any(f.fin_seen for f in flows)


class TestStudyQueries:
    def scanning_table(self):
        """A bot scanning 25 hosts on port 23 and 3 hosts on port 80."""
        table = FlowTable()
        base = ip_to_int("192.0.2.0")
        t = 0.0
        for i in range(25):
            table.observe(
                tcp_packet(BOT, base + 1 + i, 40000 + i, 23, TcpFlags.SYN, timestamp=t)
            )
            t += 0.01
        for i in range(3):
            table.observe(
                tcp_packet(BOT, base + 100 + i, 41000 + i, 80, TcpFlags.SYN, timestamp=t)
            )
            t += 0.01
        return table

    def test_flows_from_filters_initiator(self):
        table = self.scanning_table()
        assert table.flows_from(VICTIM) == []
        assert len(table.flows_from(BOT)) == 28
