"""Tests for the multi-architecture extension (paper §6d) and feed chaff."""

import random

import pytest

from repro.binary.builder import build_sample
from repro.binary.config import BotConfig
from repro.binary.elf import ARCH_MACHINES, EM_ARM, EM_MIPS, ElfImage, is_supported_elf
from repro.core.pipeline import MalNet, PipelineConfig
from repro.sandbox.qemu import EmulationError, MipsEmulator
from repro.world import StudyScale, generate_world


def config(family="gafgyt"):
    return BotConfig(family=family, c2_host="203.0.113.9", c2_port=666,
                     scan_ports=[23])


class TestArmBuilds:
    def test_arm_sample_is_arm_elf(self):
        sample = build_sample(config(), random.Random(0), arch="arm")
        image = ElfImage.parse(sample.data)
        assert image.machine == EM_ARM
        assert image.endianness == "little"

    def test_arm_config_recoverable(self):
        sample = build_sample(config(), random.Random(0), arch="arm")
        from repro.binary.config import unpack_config

        image = ElfImage.parse(sample.data)
        assert unpack_config(image.section(".config").data) == sample.config

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            build_sample(config(), random.Random(0), arch="riscv")

    def test_supported_elf_filter(self):
        mips = build_sample(config(), random.Random(0), arch="mips")
        arm = build_sample(config(), random.Random(1), arch="arm")
        mips_only = frozenset({EM_MIPS})
        both = frozenset({EM_MIPS, EM_ARM})
        assert is_supported_elf(mips.data, mips_only)
        assert not is_supported_elf(arm.data, mips_only)
        assert is_supported_elf(arm.data, both)
        assert not is_supported_elf(b"junk", both)

    def test_arch_machines_map(self):
        assert ARCH_MACHINES["mips"] == EM_MIPS
        assert ARCH_MACHINES["arm"] == EM_ARM


class TestMultiArchEmulator:
    def test_default_rejects_arm(self):
        emulator = MipsEmulator()
        arm = build_sample(config(), random.Random(0), arch="arm")
        with pytest.raises(EmulationError, match="ARM"):
            emulator.load(arm.data)

    def test_extended_emulator_loads_arm(self):
        emulator = MipsEmulator(machines=frozenset({EM_MIPS, EM_ARM}))
        arm = build_sample(config(), random.Random(0), arch="arm")
        sha256, recovered = emulator.load(arm.data)
        assert recovered == arm.config

    def test_arm_bot_behaves_like_mips_bot(self):
        emulator = MipsEmulator(machines=frozenset({EM_ARM}),
                                activation_rate=1.0)
        arm = build_sample(config(), random.Random(0), arch="arm")
        process = emulator.run(arm.data, bot_ip=0x0A000002)
        assert process.bot.checkin_payload() == b"BUILD MIPS\n"


class TestMultiArchPipeline:
    @pytest.fixture(scope="class")
    def arm_world(self):
        scale = StudyScale(sample_fraction=0.04, probe_days=2,
                           observe_duration=900.0, arm_fraction=0.4,
                           scan_budget=60)
        return generate_world(seed=42, scale=scale)

    def test_mips_only_pipeline_drops_arm(self, arm_world):
        truth_archs = {
            s.sample.sha256: ElfImage.parse(s.sample.data).machine
            for s in arm_world.truth.all_samples
        }
        arm_count = sum(1 for m in truth_archs.values() if m == EM_ARM)
        assert arm_count > 5, "world should contain ARM samples"
        malnet = MalNet(arm_world, PipelineConfig(architectures=("mips",)))
        malnet.run()
        collected = {p.sha256 for p in malnet.datasets.profiles}
        for sha256, machine in truth_archs.items():
            if machine == EM_ARM:
                assert sha256 not in collected

    def test_extended_pipeline_collects_both(self, arm_world):
        malnet = MalNet(arm_world,
                        PipelineConfig(architectures=("mips", "arm")))
        malnet.run()
        collected = {p.sha256 for p in malnet.datasets.profiles}
        generated = {s.sample.sha256 for s in arm_world.truth.all_samples}
        assert collected == generated


class TestChaffFiltering:
    def test_chaff_present_in_feed_but_never_collected(self, smoke_study):
        world, malnet, _campaign, datasets = smoke_study
        assert world.truth.chaff_hashes, "generator should submit chaff"
        collected = {p.sha256 for p in datasets.profiles}
        assert not collected & world.truth.chaff_hashes
        # and the chaff really is in the VT feed
        some_chaff = next(iter(world.truth.chaff_hashes))
        assert world.vt.lookup_hash(some_chaff) is not None
