"""Integration tests for the CnCHunter sandbox's execution modes."""

import hashlib
import random

import pytest

from repro.binary.builder import build_sample
from repro.binary.config import BotConfig
from repro.botnet.c2server import C2Server, ScheduledAttack
from repro.botnet.exploits import KEY_TO_INDEX
from repro.botnet.families import get_family
from repro.botnet.protocols.base import AttackCommand
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.internet import STUDY_EPOCH, Listener, Network, \
    VirtualInternet
from repro.netsim.capture import Capture
from repro.netsim.packet import Protocol, TcpFlags
from repro.sandbox.qemu import EmulationError, MipsEmulator
from repro.sandbox.sandbox import CncHunterSandbox, SANDBOX_IP

C2_IP = ip_to_int("203.0.113.10")
C2_PORT = 1312
TARGET = ip_to_int("192.0.2.50")


def build_binary(family="gafgyt", c2_host=None, seed=3, **kwargs):
    config = BotConfig(
        family=family,
        c2_host=c2_host or int_to_ip(C2_IP),
        c2_port=C2_PORT,
        scan_ports=[23],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"]],
        loader_name="8UsA.sh",
        downloader=int_to_ip(C2_IP) + ":80",
        **kwargs,
    )
    return build_sample(config, random.Random(seed))


def sandbox_with_internet(schedule=None, family="gafgyt"):
    network = Network()
    internet = VirtualInternet(network, random.Random(1))
    network.add_host(SANDBOX_IP, "sandbox")
    host = network.add_host(C2_IP, "c2")
    server = C2Server(get_family(family), schedule=schedule)
    host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))
    sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
    return sandbox, internet, server


class TestOfflineMode:
    @staticmethod
    def analyze(data, **kwargs):
        # at instant 0.0: the pinned pcaps below were recorded there
        sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
        return sandbox.analyze_offline(data, random.Random(0), 0.0, **kwargs)

    def test_detects_ip_based_c2(self):
        report = self.analyze(build_binary().data)
        assert report.activated
        assert report.c2_endpoint == int_to_ip(C2_IP)
        assert report.c2_port == C2_PORT
        assert not report.is_p2p

    def test_detects_domain_based_c2(self):
        binary = build_binary(c2_host="cnc.botnet.example")
        report = self.analyze(binary.data)
        assert report.c2_endpoint == "cnc.botnet.example"

    @pytest.mark.parametrize("family", ["mirai", "gafgyt", "daddyl33t", "tsunami"])
    def test_all_dialects_detected(self, family):
        report = self.analyze(
            build_binary(family=family).data
        )
        assert report.has_c2
        assert report.c2_candidates[0].confidence == 1.0

    def test_p2p_sample_flagged_not_c2(self):
        config = BotConfig(family="mozi", p2p_bootstrap=["203.0.113.1:6881"])
        binary = build_sample(config, random.Random(0))
        report = self.analyze(binary.data)
        assert report.is_p2p
        assert not report.has_c2

    def test_exploits_extracted(self):
        report = self.analyze(
            build_binary().data, scan_budget=400
        )
        assert report.exploits
        assert all(port in report.scan_ports
                   for _target, port in report.exploits)
        assert 8080 in report.scan_ports or 23 in report.scan_ports

    # rows and sha256 of each family's pcap, recorded from the per-row
    # trace the lazy scan segment replaced; a 400-target burst engages
    # victims, so PSH/ACK rows carrying payloads are in every file
    @pytest.mark.parametrize("family, rows, sha256", [
        ("mirai", 765,
         "8d148d2c8a8efb1d05aa8e56ecc41c8f682617db74926108af2cd35ff56eb934"),
        ("gafgyt", 765,
         "771c3db72940c4d442b71da67a72a39f125336dd5b01597bc20554ac0a02ec92"),
        ("daddyl33t", 765,
         "f8fa95fc82b26c7bdaad24905f75d07bf0cbd7cf6c49699ef4e0fd22e5232480"),
        ("tsunami", 765,
         "3c520446e2e47fa6e4aedd64f3760fa0b0b21b91d0c66bd2146e82d85f2715a9"),
    ], ids=["mirai", "gafgyt", "daddyl33t", "tsunami"])
    def test_capture_is_nonempty_and_pcap_serializable(self, family, rows,
                                                       sha256):
        report = self.analyze(
            build_binary(family=family).data, scan_budget=400)
        assert len(report.capture) == rows
        data = report.capture.to_pcap_bytes()
        assert hashlib.sha256(data).hexdigest() == sha256
        from repro.netsim.capture import Capture

        restored = Capture.from_pcap_bytes(data)
        assert len(restored) == len(report.capture)
        assert any(p.payload for p in restored if p.dport in report.scan_ports)

    def test_offline_captures_run_forward_in_time(self, smoke_world):
        # the scan rows continue the C2 phase's clock, so no capture (and
        # no pcap written from one) steps back in time
        now = STUDY_EPOCH
        rng = random.Random(0)
        sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
        scanned = 0
        for planned in smoke_world.truth.all_samples:
            try:
                report = sandbox.analyze_offline(planned.sample.data, rng,
                                                 now)
            except EmulationError:
                continue
            times = [row[12] for row in report.capture.iter_rows()]
            assert times == sorted(times), planned.sample.sha256
            assert all(t >= now for t in times), planned.sample.sha256
            scanned += bool(report.scan_ports)
        assert scanned > 10

    def test_unactivated_sample_reported(self):
        sandbox = CncHunterSandbox(
            emulator=MipsEmulator(activation_rate=0.0001))
        report = sandbox.analyze_offline(build_binary().data,
                                         random.Random(0), 0.0)
        assert not report.activated
        assert not report.has_c2


class TestProbingMode:
    def test_live_c2_engages(self):
        sandbox, internet, _server = sandbox_with_internet()
        results = sandbox.probe_targets(
            build_binary().data, [(C2_IP, C2_PORT)], internet
        )
        assert results[0].engaged
        assert results[0].response

    def test_dead_target_does_not_engage(self):
        sandbox, internet, _server = sandbox_with_internet()
        results = sandbox.probe_targets(
            build_binary().data,
            [(ip_to_int("192.0.2.99"), C2_PORT), (C2_IP, 9999)], internet,
        )
        assert not results[0].engaged
        assert not results[1].engaged

    def test_probe_multiple_targets_order_preserved(self):
        sandbox, internet, _server = sandbox_with_internet()
        targets = [(C2_IP, C2_PORT), (ip_to_int("192.0.2.99"), 1312)]
        results = sandbox.probe_targets(build_binary().data, targets,
                                        internet)
        assert [(r.target, r.port) for r in results] == targets

    def test_probe_trace_pcap_is_pinned(self):
        # a live C2, a closed port (the RST/ACK refusal) and a dead host;
        # the sha256 was recorded when TCP flags were composed as enums
        sandbox, internet, _server = sandbox_with_internet(family="mirai")
        trace = Capture()
        sandbox.probe_targets(
            build_binary(family="mirai").data,
            [(C2_IP, C2_PORT), (C2_IP, 9999), (ip_to_int("192.0.2.99"), 23),
             (C2_IP, C2_PORT)],
            internet, trace=trace)
        assert all(type(p.flags) is TcpFlags for p in trace)
        assert {int(p.flags) for p in trace} == {0x02, 0x12, 0x10, 0x18,
                                                  0x11, 0x14}
        assert hashlib.sha256(trace.to_pcap_bytes()).hexdigest() == (
            PROBE_TRACE_SHA256)


#: pcap sha256s of the two pinned live traces, recorded when every TCP
#: flag was composed and tested as a TcpFlags enum
PROBE_TRACE_SHA256 = (
    "7e9664b29f53ce8a55a3069bca45c4dc81cfb75b91fed48566b3c8333576f435")
LIVE_CAPTURE_SHA256 = (
    "c23f90a57cafdefd25037f21177192647232befd8cb47b301266c3a20ff8a0f5")
LIVE_CONTAINED_SHA256 = (
    "22a4285c6efd11d041988bd1d3528d2ccfd0b2ee3314dccaceab9a09df10e6ca")


class TestLiveObservation:
    def test_live_capture_pcap_is_pinned(self):
        # a Mirai ".b" bot told to SYN-flood, STOMP and TLS-exhaust: the
        # session's SYN/ACK/PSH/FIN segments and the attacks' SYN, ACK,
        # PSH|ACK and RST packets all land in the two pinned files
        sandbox, internet, server = sandbox_with_internet(family="mirai")
        for method, port in (("syn", 80), ("stomp", 61613), ("tls", 443)):
            server.schedule_attack(internet.clock.now + 90.0,
                                   AttackCommand(method, TARGET, port, 5))
        report = sandbox.observe_live(
            build_binary(family="mirai", variant="mirai.b").data, internet,
            duration=900.0, poll_interval=60.0, max_attack_packets=80)
        assert len(report.commands) == 3
        for capture in (report.capture, report.contained):
            assert all(type(p.flags) is TcpFlags for p in capture)
        assert {int(p.flags) for p in report.contained} == {
            0x02, 0x10, 0x18, 0x04}
        assert hashlib.sha256(report.capture.to_pcap_bytes()).hexdigest() == (
            LIVE_CAPTURE_SHA256)
        assert hashlib.sha256(
            report.contained.to_pcap_bytes()).hexdigest() == (
            LIVE_CONTAINED_SHA256)

    def test_eavesdrops_commands_and_contains_attack(self):
        command = AttackCommand("udp", TARGET, 80, 60)
        sandbox, internet, server = sandbox_with_internet()
        server.schedule_attack(internet.clock.now, command)
        report = sandbox.observe_live(
            build_binary().data, internet, duration=600.0, poll_interval=60.0
        )
        assert report.connected
        assert report.c2_host == C2_IP
        assert command in report.commands
        # attack traffic was generated but contained (target not reachable)
        attack_packets = [p for p in report.contained if p.dst == TARGET]
        assert len(attack_packets) > 100
        assert report.alerts >= 1  # flood signature fired

    def test_server_stream_profilable(self):
        command = AttackCommand("udp", TARGET, 80, 60)
        sandbox, internet, server = sandbox_with_internet()
        server.schedule_attack(internet.clock.now, command)
        report = sandbox.observe_live(build_binary().data, internet,
                                      duration=300.0)
        from repro.analysis.ddos_detect import profile_stream

        profiled = profile_stream(report.server_stream)
        assert any(p.command == command for p in profiled)

    def test_no_commands_when_schedule_empty(self):
        sandbox, internet, _server = sandbox_with_internet()
        report = sandbox.observe_live(build_binary().data, internet,
                                      duration=300.0)
        assert report.connected
        assert report.commands == []
        assert len(report.contained) == 0

    def test_unreachable_c2_reports_disconnected(self):
        sandbox, internet, _server = sandbox_with_internet()
        internet.host(C2_IP).set_lifetime(0, 1)  # long dead
        report = sandbox.observe_live(build_binary().data, internet,
                                      duration=300.0)
        assert not report.connected
        assert report.commands == []
