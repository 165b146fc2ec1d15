"""Tests for the world generator's ground truth."""

import dataclasses
import json
import os
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.binary.elf import is_mips32_elf
from repro.botnet.families import ATTACK_FAMILIES, FAMILIES
from repro.netsim.dns import Resolver
from repro.netsim.faults import FaultInjector
from repro.netsim.internet import SimClock
from repro.netsim.packet import Protocol
from repro.world import FULL_SCALE, SMOKE_SCALE, XL_SCALE, generate_world
from repro.world.calibration import (
    ATTACK_COMMAND_COUNT,
    PROBE_PORTS,
    PROBED_C2_COUNT,
)

from .conftest import walk_world, world_fingerprint

#: what a run owns and a world must not hold
RUN_STATE = (random.Random, SimClock, FaultInjector)

WORLD_SCALES = [pytest.param(SMOKE_SCALE, id="smoke")] + (
    [pytest.param(XL_SCALE, id="xl")] if os.environ.get("REPRO_XL") else [])


#: per world: its :func:`world_fingerprint`, the fingerprint of each
#: ``World`` field, and the first 8 hex digits of every sample's sha256
#: in ``truth.all_samples`` order.  Recorded before the ``.text`` filler,
#: the chaff and the scan ports decoded their random words in C; the
#: same under any ``PYTHONHASHSEED``.
WORLD_GOLDENS = json.loads(
    (Path(__file__).parent / "world_goldens.json").read_text())


def first_moved_sample(world, golden_samples: str) -> str | None:
    """The first sample of ``world`` whose sha256 leaves the golden list,
    named by its position, its family and its rank in that family; None
    if every sample matches."""
    expected = [golden_samples[i:i + 8]
                for i in range(0, len(golden_samples), 8)]
    samples = world.truth.all_samples
    rank = Counter()
    for index, planned in enumerate(samples):
        family = planned.sample.family
        rank[family] += 1
        where = f"sample {index} ({family} #{rank[family] - 1})"
        if index == len(expected):
            return f"{where} is past the golden {len(expected)} samples"
        actual = planned.sample.sha256[:8]
        if actual != expected[index]:
            return f"{where}: sha256 {actual}… != golden {expected[index]}…"
    if len(samples) < len(expected):
        return f"{len(samples)} samples, golden {len(expected)}"
    return None


class TestWorldGoldens:
    """Generation is byte-exact: every sample, every chaff hash, every
    host and feed entry of three worlds, pinned by fingerprint."""

    @pytest.mark.parametrize("name, seed, scale", [
        pytest.param("smoke", 20220322, SMOKE_SCALE, id="smoke-20220322"),
        pytest.param("smoke", 7, SMOKE_SCALE, id="smoke-7"),
        pytest.param("full", 20220322, FULL_SCALE, id="full-20220322"),
    ])
    def test_world_equals_golden(self, shared_world, name, seed, scale):
        golden = WORLD_GOLDENS[f"{name}-{seed}"]
        world = shared_world(seed, scale)
        moved = first_moved_sample(world, golden["samples"])
        assert moved is None, moved
        if shared_world.fingerprint(world) != golden["fingerprint"]:
            moved = [field for field, digest in golden["fields"].items()
                     if world_fingerprint(getattr(world, field)) != digest]
            pytest.fail("every sample's sha256 matches the golden one, but "
                        f"these World fields moved: {moved}")

    def test_a_moved_sample_is_named_by_position_and_family(self,
                                                            smoke_world):
        golden = WORLD_GOLDENS["smoke-20220322"]["samples"]
        families = [s.sample.family for s in smoke_world.truth.all_samples]
        moved = golden[:24] + "zzzzzzzz" + golden[32:]
        assert first_moved_sample(smoke_world, moved).startswith(
            f"sample 3 ({families[3]} #{families[:3].count(families[3])}): "
            "sha256 ")
        last = len(families) - 1
        assert first_moved_sample(smoke_world, golden[:-8]) == (
            f"sample {last} ({families[last]} "
            f"#{families.count(families[last]) - 1}) "
            f"is past the golden {last} samples")
        assert first_moved_sample(smoke_world, golden + "00000000") == \
            f"{last + 1} samples, golden {last + 2}"


class TestWorldIsData:
    @pytest.mark.parametrize("dga", [False, True], ids=["plain", "dga"])
    @pytest.mark.parametrize("scale", WORLD_SCALES)
    def test_no_run_state_reachable(self, shared_world, scale, dga):
        """No traffic engine, clock, random stream or fault injector is
        reachable from a generated world: a run cannot draw from, advance
        or fault the world, only read it."""
        world = shared_world(20220322, dataclasses.replace(scale, dga=dga))
        _tokens, entered = walk_world(world)
        found = Counter(type(obj).__qualname__ for obj in entered
                        if isinstance(obj, RUN_STATE))
        assert not found, f"run state reachable from the world: {found}"


class TestDeterminism:
    def test_same_seed_same_world(self, smoke_world):
        from tests.conftest import SMOKE

        other = generate_world(seed=20220322, scale=SMOKE)
        a = [s.sample.sha256 for s in smoke_world.truth.all_samples]
        b = [s.sample.sha256 for s in other.truth.all_samples]
        assert a == b
        assert ([d.endpoint for d in smoke_world.truth.deployments]
                == [d.endpoint for d in other.truth.deployments])

    def test_different_seed_different_world(self, smoke_world):
        from tests.conftest import SMOKE

        other = generate_world(seed=999, scale=SMOKE)
        a = {s.sample.sha256 for s in smoke_world.truth.all_samples}
        b = {s.sample.sha256 for s in other.truth.all_samples}
        assert a != b


class TestSamples:
    def test_budget_respected(self, smoke_world):
        assert len(smoke_world.truth.all_samples) == smoke_world.scale.total_samples

    def test_all_samples_are_mips32(self, smoke_world):
        for planned in smoke_world.truth.all_samples:
            assert is_mips32_elf(planned.sample.data)

    def test_families_registered(self, smoke_world):
        for planned in smoke_world.truth.all_samples:
            assert planned.sample.family in FAMILIES

    def test_p2p_samples_have_no_c2(self, mid_world):
        for planned in mid_world.truth.all_samples:
            if planned.sample.family in ("mozi", "hajime"):
                assert planned.c2 is None
                assert planned.sample.config.p2p_bootstrap

    def test_every_sample_in_vt_feed(self, smoke_world):
        for planned in smoke_world.truth.all_samples:
            assert smoke_world.vt.lookup_hash(planned.sample.sha256) is not None


class TestDeployments:
    def test_c2_hosts_exist_with_listeners(self, smoke_world):
        for deployment in smoke_world.truth.deployments:
            host = smoke_world.network.host(deployment.address)
            assert host is not None
            assert host.listener(Protocol.TCP, deployment.port) is not None

    def test_lifetimes_positive(self, smoke_world):
        for deployment in smoke_world.truth.deployments:
            assert deployment.online_until > deployment.online_from

    def test_downloader_port_bound_on_c2_hosts(self, smoke_world):
        for deployment in smoke_world.truth.deployments:
            if deployment.is_probed:
                continue
            host = smoke_world.network.host(deployment.address)
            assert host.listener(Protocol.TCP, 80) is not None

    def test_dns_deployments_resolve_while_alive(self, mid_world):
        resolver = Resolver(mid_world.network.zones)
        named = [d for d in mid_world.truth.deployments if d.domain]
        assert named, "expected some DNS-named C2s at mid scale"
        for deployment in named:
            mid = (deployment.online_from + deployment.online_until) / 2
            assert resolver.resolve(deployment.domain, mid) == deployment.address
            assert resolver.resolve(deployment.domain,
                                    deployment.online_until + 10) is None

    def test_intel_registered_for_every_deployment(self, smoke_world):
        for deployment in smoke_world.truth.deployments:
            assert smoke_world.vt.get_intel(deployment.endpoint) is not None

    def test_addresses_fall_in_asdb(self, smoke_world):
        for deployment in smoke_world.truth.deployments:
            assert smoke_world.asdb.lookup(deployment.address) is not None


class TestAttackPlan:
    def test_42_attacks_planned(self, smoke_world):
        assert len(smoke_world.truth.attacks) == ATTACK_COMMAND_COUNT

    def test_attack_families_only(self, smoke_world):
        for attack in smoke_world.truth.attacks:
            assert attack.c2.family in ATTACK_FAMILIES

    def test_attacks_scheduled_on_servers(self, smoke_world):
        for attack in smoke_world.truth.attacks:
            methods = [item.command.method
                       for item in attack.c2.server.schedule]
            assert attack.command.method in methods

    def test_attack_c2s_long_lived(self, smoke_world):
        for attack in smoke_world.truth.attacks:
            assert attack.c2.lifetime_days >= 8.0

    def test_attack_times_inside_c2_life(self, smoke_world):
        for attack in smoke_world.truth.attacks:
            assert attack.c2.online_from <= attack.when < attack.c2.online_until


class TestProbingWorld:
    def test_seven_probed_c2s(self, smoke_world):
        assert len(smoke_world.truth.probed_deployments) == PROBED_C2_COUNT

    def test_probed_c2s_inside_probe_subnets(self, smoke_world):
        subnets = smoke_world.truth.probe_subnets
        for deployment in smoke_world.truth.probed_deployments:
            assert any(deployment.address in subnet for subnet in subnets)

    def test_probed_ports_from_table5(self, smoke_world):
        for deployment in smoke_world.truth.probed_deployments:
            assert deployment.port in PROBE_PORTS

    def test_probed_c2s_gated(self, smoke_world):
        """Their listeners must have a non-trivial accepts gate while the
        host is online; the gate is drawn only that far (the host is
        offline from ``online_until``, so no probe reads past it)."""
        network = smoke_world.network
        slot = 4 * 3600.0
        for deployment in smoke_world.truth.probed_deployments:
            host = network.host(deployment.address)
            listener = host.listener(Protocol.TCP, deployment.port)
            start, end = smoke_world.probe_start, deployment.online_until
            times = [start + i * slot for i in range(int((end - start) // slot))]
            assert all(host.is_online(t) for t in times)
            slots = [listener.accepts(t) for t in times]
            assert any(slots) and not all(slots)
            with pytest.raises(ValueError):
                listener.accepts(end + slot)

    def test_decoys_present_with_banners(self, smoke_world):
        decoys = [h for h in smoke_world.network.hosts.values()
                  if h.name == "decoy-web"]
        assert decoys
        for host in decoys:
            assert any(l.banner.startswith(b"HTTP/1.0 200 OK")
                       for l in host.listeners.values())


class TestDownloaders:
    def test_twelve_downloader_only_hosts(self, smoke_world):
        assert len(smoke_world.truth.downloader_only_addresses) == 12

    def test_downloader_hosts_serve_port_80(self, smoke_world):
        for address in smoke_world.truth.downloader_only_addresses:
            host = smoke_world.network.host(address)
            assert host.listener(Protocol.TCP, 80) is not None
