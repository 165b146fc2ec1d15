#!/usr/bin/env python3
"""Active probing for live C2 servers (the D-PC2 experiment, section 2.3b).

Stands up a small Internet with elusive C2 servers hidden among benign
web hosts, weaponizes two malware samples, and probes six /24 subnets on
the paper's twelve ports every four hours for a week.  Prints a
Figure 4-style probe-response matrix and the elusiveness statistics.

Run:  python examples/active_probing_study.py
"""

from repro.core.pipeline import MalNet, PipelineConfig
from repro.core.probing import ProbingCampaign
from repro.core.report import render_probe_matrix
from repro.core.study import select_probe_binaries
from repro.world import StudyScale, generate_world


def main() -> None:
    scale = StudyScale(sample_fraction=0.03, probe_days=7)
    world = generate_world(seed=1312, scale=scale)
    # the world is read-only data: the run's sandbox always activates,
    # and each probe slot drives a traffic engine of its own over the
    # world's network
    malnet = MalNet(world, PipelineConfig(activation_rate=1.0))
    campaign = ProbingCampaign(
        network=world.network,
        engine=malnet.engine,
        sandbox=malnet.sandbox,
        subnets=list(world.truth.probe_subnets),
        sample_binaries=select_probe_binaries(world, malnet.sandbox.emulator),
        start=world.probe_start,
        days=scale.probe_days,
    )
    print(f"probing {len(campaign.subnets)} subnets x "
          f"{len(campaign.ports)} ports, {campaign.slots_per_day} probes/day "
          f"for {campaign.days} days ...")
    campaign.run()

    print()
    print(render_probe_matrix(
        campaign.response_matrix(),
        f"discovered {len(campaign.discovered)} C2 servers:",
    ))
    print()
    rate = campaign.repeat_response_rate()
    print(f"P(responds again 4h after a success): {rate:.0%} "
          f"(paper: ~9% — i.e. 91% of the time it does NOT)")
    print(f"any server ever answered all 6 daily probes: "
          f"{campaign.any_full_day_response()} (paper: never)")
    engaged = sum(1 for obs in campaign.observations if obs.engaged)
    print(f"D-PC2 records: {len(campaign.observations)} probe "
          f"observations, {engaged} engagements")


if __name__ == "__main__":
    main()
