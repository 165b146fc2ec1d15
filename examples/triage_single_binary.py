#!/usr/bin/env python3
"""Triage one malware binary with the sandbox, like MalNet does daily.

Builds a synthetic Mirai MIPS 32B sample (XOR-obfuscated config and all),
then walks the exact pipeline steps: ELF filtering, AV corroboration,
YARA/AVClass2 labeling, closed-world activation, C2 detection, handshaker
exploit extraction — and finally writes the traffic out as a real pcap
file and reads it back.

Run:  python examples/triage_single_binary.py [out.pcap]
"""

import random
import sys
from itertools import islice

from repro.binary import BotConfig, build_sample, is_mips32_elf
from repro.botnet.exploits import KEY_TO_INDEX, classify_exploit
from repro.feeds import VirusTotalService, label_sample
from repro.netsim import Capture, FlowTable
from repro.sandbox import CncHunterSandbox, MipsEmulator


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "/tmp/malnet-triage.pcap"
    rng = random.Random(7)

    config = BotConfig(
        family="mirai",
        c2_host="cnc.okiru.example",
        c2_port=23,
        scan_ports=[23, 2323],
        exploit_ids=[KEY_TO_INDEX["CVE-2018-10561"],
                     KEY_TO_INDEX["CVE-2015-2051"]],
        loader_name="8UsA.sh",
        downloader="203.0.113.80:80",
        variant="mirai.a",
    )
    sample = build_sample(config, rng)
    print(f"built sample {sample.sha256[:16]} ({len(sample)} bytes)")
    print(f"  MIPS 32B ELF:  {is_mips32_elf(sample.data)}")
    print(f"  C2 string obfuscated on disk: "
          f"{b'cnc.okiru.example' not in sample.data}")

    vt = VirusTotalService()
    vt.submit_sample(sample, when=0.0, rng=random.Random(1))
    report = vt.scan(sample, now=0.0)
    print(f"  AV engines detecting: {report.positives}/75 "
          f"(threshold is 5)")
    print(f"  YARA family: {report.yara_families}")
    print(f"  AVClass2 family: {label_sample(report.engine_labels)}")

    sandbox = CncHunterSandbox(emulator=MipsEmulator(activation_rate=1.0))
    offline = sandbox.analyze_offline(sample.data, random.Random(2), 0.0,
                                      scan_budget=400)
    print()
    print(f"sandbox activation:  {offline.activated}")
    print(f"detected C2:         {offline.c2_endpoint}:{offline.c2_port} "
          f"(dialect: {offline.c2_candidates[0].dialect})")
    print(f"popular scan ports:  {offline.scan_ports}")
    print(f"exploit payloads captured: {len(offline.exploits)}")
    # (target, port) -> the latest payload that fake victim received
    for (_target, port), payload in islice(offline.exploits.items(), 4):
        vuln = classify_exploit(payload)
        label = vuln.key if vuln else "telnet credentials"
        print(f"  port {port:<5} -> {label}")

    offline.capture.save(out_path)
    print()
    print(f"wrote {len(offline.capture)} packets to {out_path}")
    restored = Capture.load(out_path)
    table = FlowTable.from_capture(restored)
    print(f"re-read pcap: {len(restored)} packets, {len(table)} flows")
    top = sorted(table.flows(), key=lambda f: -f.total_bytes)[:3]
    for flow in top:
        from repro.netsim import int_to_ip

        print(f"  {int_to_ip(flow.initiator)} -> "
              f"{int_to_ip(flow.responder)}:{flow.responder_port} "
              f"{flow.protocol.name} {flow.total_bytes}B")


if __name__ == "__main__":
    main()
