#!/usr/bin/env python3
"""Eavesdrop on live DDoS attacks through a connected bot (section 2.5).

Builds a Daddyl33t C2 server with a schedule of attacks, activates a bot
binary against it in restricted mode (only C2 traffic may leave the
sandbox), and shows the two detection methods working on the recorded
session: the protocol profilers decoding the command stream, and the
100-packets-per-second behavioral heuristic firing on the contained
attack traffic.

Run:  python examples/ddos_eavesdropping.py
"""

import random

from repro.analysis.ddos_detect import (
    profile_stream,
    rate_bursts,
    target_in_command_bytes,
    verify_flooding,
)
from repro.binary import BotConfig, build_sample
from repro.botnet import AttackCommand, C2Server, get_family
from repro.netsim import (
    Listener, Network, Protocol, VirtualInternet, int_to_ip, ip_to_int,
)
from repro.sandbox import CncHunterSandbox, MipsEmulator, SANDBOX_IP

C2_IP = ip_to_int("203.0.113.66")
C2_PORT = 1312


def main() -> None:
    network = Network()
    internet = VirtualInternet(network, random.Random(0))
    network.add_host(SANDBOX_IP, "sandbox")
    c2_host = network.add_host(C2_IP, "daddyl33t-c2")
    server = C2Server(get_family("daddyl33t"))
    c2_host.bind(Listener(port=C2_PORT, protocol=Protocol.TCP, service=server))

    # the operator queues three attacks: two on one victim (the paper's
    # "one target hit by multiple attacks" pattern), one BLACKNURSE
    victim_a = ip_to_int("192.0.2.77")
    victim_b = ip_to_int("198.51.100.99")
    now = internet.clock.now
    server.schedule_attack(now + 120, AttackCommand("tls", victim_a, 443, 60))
    server.schedule_attack(now + 300, AttackCommand("hydrasyn", victim_a, 4567, 60))
    server.schedule_attack(now + 500, AttackCommand("blacknurse", victim_b, 0, 60))

    config = BotConfig(family="daddyl33t", c2_host=int_to_ip(C2_IP),
                       c2_port=C2_PORT, variant="daddyl33t.a")
    binary = build_sample(config, random.Random(2))

    sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
    print("connecting the bot to its C2 in restricted mode (2h window)...")
    report = sandbox.observe_live(binary.data, internet, duration=1200.0,
                                  poll_interval=60.0)
    print(f"connected: {report.connected}; "
          f"commands heard: {len(report.commands)}; "
          f"IDS alerts: {report.alerts}")

    print()
    print("method (a) — protocol profile over the server stream:")
    for item in profile_stream(report.server_stream):
        command = item.command
        flooded = verify_flooding(command, report.contained, SANDBOX_IP)
        print(f"  [{item.family_profile}] {command.method.upper():<10} "
              f"{int_to_ip(command.target_ip)}:{command.target_port} "
              f"{command.duration}s  -> flooding verified: {flooded}")

    print()
    print("method (b) — behavioral heuristic (>100 pps to non-C2 hosts):")
    for burst in rate_bursts(report.contained, SANDBOX_IP, {C2_IP}):
        attributable = target_in_command_bytes(burst.target,
                                               report.server_stream)
        print(f"  burst to {int_to_ip(burst.target)}: {burst.rate:.0f} pps "
              f"-> target found in C2 command bytes: {attributable}")

    print()
    contained = len(report.contained)
    released = sum(1 for p in report.capture if p.dst not in (C2_IP,))
    print(f"containment: {contained} attack packets recorded, "
          f"none delivered to victims (SNORT egress policy)")


if __name__ == "__main__":
    main()
