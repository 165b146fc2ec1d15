"""Ablations of MalNet's design choices.

Each test varies one knob the paper fixes and shows why the paper's value
is the right one: the handshaker's 20-IP fan-out threshold, the 4-hour
probing cadence, threat-intel feed aggregation, and sandbox activation
capability.
"""

import random

import pytest
from conftest import emit

from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.probing import ProbingCampaign
from repro.core.report import render_table
from repro.core.study import select_probe_binaries
from repro.sandbox.handshaker import Handshaker
from repro.sandbox.qemu import MipsEmulator
from repro.sandbox.sandbox import SANDBOX_IP
from repro.world import StudyScale, generate_world


# -- ablation 1: handshaker fan-out threshold (paper: 20, section 2.4) ------


def _exploit_yield(world, threshold: int, budget: int = 260) -> int:
    """Distinct exploits the handshaker collects at one threshold."""
    emulator = MipsEmulator(activation_rate=1.0)
    captured = 0
    armed = [s for s in world.truth.all_samples
             if s.sample.config.exploit_ids][:25]
    for planned in armed:
        process = emulator.run(planned.sample.data, SANDBOX_IP)
        handshaker = Handshaker(SANDBOX_IP, random.Random(1),
                                fanout_threshold=threshold)
        handshaker.scan(process.bot, budget)
        captured += len(handshaker.victims)
    return captured


def test_ablation_handshaker_threshold(benchmark, world):
    yields = {
        threshold: _exploit_yield(world, threshold)
        for threshold in (5, 20, 120, 100000)
    }
    benchmark(lambda: _exploit_yield(world, 20, budget=60))
    emit(render_table(
        ["fan-out threshold", "exploit payloads captured"],
        [[t, y] for t, y in yields.items()],
        "Ablation — handshaker redirection threshold (paper uses 20)",
    ))
    # too-high thresholds never redirect, losing the exploits entirely
    assert yields[100000] == 0
    assert yields[20] > 5 * max(1, yields[120])
    # the paper's 20 gives nearly everything a hair-trigger gives
    assert yields[20] > 0.7 * yields[5]


# -- ablation 2: probing cadence (paper: every 4 hours, section 2.3b) -------


def _probing_engagements(world, interval_hours: int):
    malnet = MalNet(world, PipelineConfig(activation_rate=1.0))
    campaign = ProbingCampaign(
        network=world.network, engine=malnet.engine, sandbox=malnet.sandbox,
        subnets=list(world.truth.probe_subnets),
        sample_binaries=select_probe_binaries(world, malnet.sandbox.emulator),
        start=world.probe_start, days=14, interval_hours=interval_hours,
    )
    campaign.run()
    engaged = sum(1 for o in campaign.observations if o.engaged)
    return len(campaign.discovered), engaged


def test_ablation_probe_frequency(benchmark, world):
    results = {}
    for hours in (4, 12, 24):
        results[hours] = _probing_engagements(world, hours)
    benchmark(lambda: _probing_engagements(world, 24))
    emit(render_table(
        ["probe interval (h)", "C2s discovered", "engagements"],
        [[h, d, e] for h, (d, e) in results.items()],
        "Ablation — probing cadence (paper probes every 4 hours)",
    ))
    # elusive servers demand persistence: a lazier prober sees fewer
    # engagements and risks missing servers entirely (section 3.2's
    # "probing should be persistent and probe frequently")
    assert results[4][1] > results[12][1] > results[24][1]
    assert results[4][0] >= results[24][0]


# -- ablation 3: TI feed aggregation (section 3.3) ----------------------------


def test_ablation_ti_aggregation(benchmark, world, datasets):
    vt = world.vt

    def miss_rate(top_n: int) -> float:
        vendor_names = [v.name for v in vt.vendors.vendors[:top_n]]
        allowed = set(vendor_names)
        verified = [r for r in datasets.d_c2s.values() if r.verified]
        missed = 0
        for record in verified:
            intel = vt.get_intel(record.endpoint)
            flaggers = set(vt.vendors.eventual_flaggers(intel)) if intel else set()
            if not flaggers & allowed:
                missed += 1
        return missed / len(verified)

    rates = {n: miss_rate(n) for n in (1, 3, 10, 44)}
    benchmark(miss_rate, 1)
    emit(render_table(
        ["feeds aggregated", "eventual miss rate"],
        [[n, f"{r:.1%}"] for n, r in rates.items()],
        "Ablation — blacklist built from N vendor feeds "
        "(the paper: aggregate, or miss C2s)",
    ))
    # a single feed misses a sizable share that full aggregation recovers
    assert rates[1] > rates[44] + 0.05
    assert rates[1] >= rates[3] >= rates[10] >= rates[44]


# -- ablation 4: sandbox activation capability (sections 3.3, 6f) -------------


def test_ablation_activation_rate(benchmark):
    """The vendors' stated obstacle — 'lack of infrastructure to execute
    IoT malware binaries' — quantified: C2 discovery scales with how many
    binaries the sandbox can activate."""
    from repro.core.pipeline import MalNet, PipelineConfig

    scale = StudyScale(sample_fraction=0.08, probe_days=2,
                       observe_duration=900.0, scan_budget=60)

    def discovered_c2s(rate: float) -> int:
        world = generate_world(seed=99, scale=scale)
        malnet = MalNet(world, PipelineConfig(activation_rate=rate))
        malnet.run()
        return len(malnet.datasets.d_c2s)

    counts = {rate: discovered_c2s(rate) for rate in (0.9, 0.5, 0.2)}
    benchmark(lambda: None)
    emit(render_table(
        ["activation rate", "distinct C2s found"],
        [[f"{r:.0%}", c] for r, c in counts.items()],
        "Ablation — sandbox activation capability",
    ))
    assert counts[0.9] > counts[0.5] > counts[0.2]
