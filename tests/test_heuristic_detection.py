"""End-to-end tests of the behavioral DDoS heuristic (section 2.5b).

The paper builds protocol profiles for Mirai, Gafgyt and Daddyl33t only;
"to cover other malware families and new variants" it falls back to the
>100-packets-per-second heuristic with last-command attribution.  Tsunami
exercises exactly that path: its IRC command stream matches none of the
three profiles, so its attacks are only detectable behaviorally.
"""

import random

import pytest

from repro.analysis.ddos_detect import (
    profile_stream,
    rate_bursts,
    target_in_command_bytes,
)
from repro.binary.builder import build_sample
from repro.binary.config import BotConfig
from repro.botnet.c2server import C2Server
from repro.botnet.families import get_family
from repro.botnet.protocols.base import AttackCommand
from repro.core.pipeline import MalNet, PipelineConfig
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.capture import Capture
from repro.netsim.internet import Listener, Network, VirtualInternet
from repro.netsim.packet import Protocol
from repro.sandbox.qemu import MipsEmulator
from repro.sandbox.sandbox import CncHunterSandbox, SANDBOX_IP

C2_IP = ip_to_int("203.0.113.20")
C2_PORT = 6667
TARGET = ip_to_int("192.0.2.80")


@pytest.fixture
def tsunami_setup():
    network = Network()
    internet = VirtualInternet(network, random.Random(0))
    network.add_host(SANDBOX_IP)
    host = network.add_host(C2_IP, "irc-c2")
    server = C2Server(get_family("tsunami"))
    host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))
    server.schedule_attack(
        internet.clock.now, AttackCommand("udp", TARGET, 80, 60)
    )
    config = BotConfig(family="tsunami", c2_host=int_to_ip(C2_IP),
                       c2_port=C2_PORT)
    binary = build_sample(config, random.Random(2))
    sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
    return sandbox, internet, binary


class TestTsunamiHeuristicPath:
    def test_profilers_blind_to_irc_commands(self, tsunami_setup):
        sandbox, internet, binary = tsunami_setup
        report = sandbox.observe_live(binary.data, internet, duration=600.0)
        assert report.connected
        # the bot itself decoded and executed the command...
        assert report.commands
        # ...but none of the paper's three profiles can see it
        assert profile_stream(report.server_stream) == []

    def test_rate_heuristic_catches_the_attack(self, tsunami_setup):
        sandbox, internet, binary = tsunami_setup
        report = sandbox.observe_live(binary.data, internet, duration=600.0)
        bursts = rate_bursts(report.contained, SANDBOX_IP,
                             c2_hosts={C2_IP})
        assert len(bursts) == 1
        assert bursts[0].target == TARGET
        assert bursts[0].rate > 100

    def test_attribution_via_command_bytes(self, tsunami_setup):
        sandbox, internet, binary = tsunami_setup
        report = sandbox.observe_live(binary.data, internet, duration=600.0)
        # method-b verification: the target IP is in the IRC PRIVMSG text
        assert target_in_command_bytes(TARGET, report.server_stream)
        # a host never named in commands is not attributable
        assert not target_in_command_bytes(ip_to_int("198.51.100.99"),
                                           report.server_stream)


class TestPipelineHeuristicRecords:
    def test_heuristic_ddos_record_created(self, tsunami_setup):
        """A pipeline observing all families records the Tsunami attack
        via the heuristic (family tag 'heuristic', via_heuristic=True)."""
        sandbox, internet, binary = tsunami_setup
        report = sandbox.observe_live(binary.data, internet, duration=600.0)
        from repro.analysis.ddos_detect import attribute_burst

        bursts = rate_bursts(report.contained, SANDBOX_IP, {C2_IP})
        profiled = profile_stream(report.server_stream)
        # exactly the pipeline's logic: unprofiled burst + byte match
        unattributed = [b for b in bursts
                        if attribute_burst(b, profiled) is None]
        assert unattributed
        assert all(
            target_in_command_bytes(b.target, report.server_stream)
            for b in unattributed
        )


class TestPcapRoundtripIntegration:
    def test_live_capture_survives_pcap_and_reanalysis(self, tsunami_setup):
        """Writing the contained traffic to pcap and re-reading it must
        yield identical heuristic detections — captures are evidence."""
        sandbox, internet, binary = tsunami_setup
        report = sandbox.observe_live(binary.data, internet, duration=600.0)
        restored = Capture.from_pcap_bytes(report.contained.to_pcap_bytes())
        original = rate_bursts(report.contained, SANDBOX_IP, {C2_IP})
        replayed = rate_bursts(restored, SANDBOX_IP, {C2_IP})
        assert [(b.target, b.packets) for b in replayed] == [
            (b.target, b.packets) for b in original
        ]
