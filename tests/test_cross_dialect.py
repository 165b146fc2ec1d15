"""Cross-dialect robustness: probing with the wrong protocol must fail.

The D-PC2 campaign weaponizes one Gafgyt and one Mirai sample; a C2 only
engages a probe speaking its own dialect.  This is what keeps the probing
results meaningful (a Gafgyt C2 discovered by the Gafgyt probe, not by
accident), and it is also how the C2Server must behave when fed garbage.
"""

import random

import pytest

from repro.binary.builder import build_sample
from repro.binary.config import BotConfig
from repro.botnet.c2server import C2Server
from repro.botnet.families import get_family
from repro.netsim.addresses import int_to_ip, ip_to_int
from repro.netsim.capture import Capture
from repro.netsim.internet import Listener, Network, VirtualInternet
from repro.netsim.packet import Protocol
from repro.sandbox.qemu import MipsEmulator
from repro.sandbox.sandbox import CncHunterSandbox, SANDBOX_IP

from .test_botnet_c2server import REGISTERED_REPLY

C2_IP = ip_to_int("203.0.113.30")
C2_PORT = 666

DIALECT_FAMILIES = ("mirai", "gafgyt", "daddyl33t", "tsunami")


def build_probe(family):
    config = BotConfig(family=family, c2_host=int_to_ip(C2_IP),
                       c2_port=C2_PORT)
    return build_sample(config, random.Random(hash(family) & 0xFFFF))


def sandbox_with_c2(server_family):
    network = Network()
    internet = VirtualInternet(network, random.Random(0))
    network.add_host(SANDBOX_IP)
    host = network.add_host(C2_IP)
    server = C2Server(get_family(server_family))
    host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))
    sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
    return sandbox, internet, server


class TestDialectMatching:
    @pytest.mark.parametrize("family", DIALECT_FAMILIES)
    def test_matching_dialect_engages(self, family):
        sandbox, internet, _server = sandbox_with_c2(family)
        (result,) = sandbox.probe_targets(build_probe(family).data,
                                          [(C2_IP, C2_PORT)], internet)
        assert result.engaged

    # daddyl33t and tsunami greet on connect, so any probe elicits bytes;
    # the silent dialects (gafgyt, mirai) are the clean mismatch cases
    @pytest.mark.parametrize("server_family,probe_family", [
        ("gafgyt", "mirai"),
        ("mirai", "gafgyt"),
        ("mirai", "daddyl33t"),
        ("gafgyt", "daddyl33t"),
    ])
    def test_mismatched_dialect_does_not_engage(self, server_family,
                                                probe_family):
        sandbox, internet, _server = sandbox_with_c2(server_family)
        trace = Capture()
        (result,) = sandbox.probe_targets(build_probe(probe_family).data,
                                          [(C2_IP, C2_PORT)], internet,
                                          trace=trace)
        assert not result.engaged
        # the TCP connection happened, but no application engagement
        from_c2 = [pkt for pkt in trace if pkt.src == C2_IP]
        assert from_c2 and not any(pkt.payload for pkt in from_c2)

    def test_daddyl33t_banner_is_not_engagement_proof(self):
        """Daddyl33t greets on connect; the probe still needs the right
        login to be *registered* (engagement counts bytes, registration
        gates command delivery)."""
        sandbox, internet, _server = sandbox_with_c2("daddyl33t")
        (result,) = sandbox.probe_targets(build_probe("mirai").data,
                                          [(C2_IP, C2_PORT)], internet)
        # the welcome banner leaks bytes, so the probe "engages"...
        assert result.engaged
        # ...but the server never registers the client as a bot
        assert REGISTERED_REPLY["daddyl33t"] not in result.response


class TestServerJunkTolerance:
    @pytest.mark.parametrize("family", DIALECT_FAMILIES)
    def test_junk_bytes_do_not_crash_server(self, family):
        network = Network()
        internet = VirtualInternet(network, random.Random(0))
        network.add_host(SANDBOX_IP)
        host = network.add_host(C2_IP)
        server = C2Server(get_family(family))
        host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP,
                           service=server))
        session = internet.tcp_connect(SANDBOX_IP, C2_IP, C2_PORT)
        rng = random.Random(7)
        received = b""
        for _ in range(5):
            session.send(bytes(rng.randrange(256) for _ in range(64)))
            received += session.recv()
        # junk never registers as a bot check-in
        assert REGISTERED_REPLY[family] not in received
