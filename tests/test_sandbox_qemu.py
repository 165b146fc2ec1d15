"""Tests for the emulation layer."""

import random

import pytest

from repro.binary.builder import build_chaff, build_sample
from repro.binary.config import BotConfig
from repro.sandbox.qemu import (
    ActivationError,
    EmulationError,
    MipsEmulator,
)


def sample(seed=0):
    config = BotConfig(
        family="mirai", c2_host="203.0.113.9", c2_port=23,
        scan_ports=[23], exploit_ids=[0], loader_name="8UsA.sh",
        downloader="203.0.113.9:80",
    )
    return build_sample(config, random.Random(seed))


@pytest.fixture
def emulator():
    return MipsEmulator()


class TestLoading:
    def test_loads_and_recovers_config(self, emulator):
        mal = sample()
        sha256, config = emulator.load(mal.data)
        assert sha256 == mal.sha256
        assert config == mal.config  # through the XOR obfuscation

    @pytest.mark.parametrize("kind", ["arm", "x86", "junk", "truncated"])
    def test_rejects_chaff(self, emulator, kind):
        with pytest.raises(EmulationError):
            emulator.load(build_chaff(random.Random(0), kind))

    def test_rejects_missing_config_section(self, emulator):
        from repro.binary.elf import ElfImage

        image = ElfImage()
        image.add_section(".text", b"\x00" * 64)
        with pytest.raises(EmulationError, match="behavior"):
            emulator.load(image.encode())

    def test_rejects_corrupt_config(self, emulator):
        from repro.binary.elf import ElfImage

        image = ElfImage()
        image.add_section(".config", b"\x00XXXX-not-a-config")
        with pytest.raises(EmulationError, match="config"):
            emulator.load(image.encode())


class TestActivation:
    def test_rate_near_90_percent(self, emulator):
        activated = sum(
            1 for seed in range(300) if emulator.activates(sample(seed).sha256)
        )
        assert 0.84 < activated / 300 < 0.96

    def test_deterministic_per_sample(self, emulator):
        sha = sample(5).sha256
        assert emulator.activates(sha) == emulator.activates(sha)

    def test_run_returns_process(self, emulator):
        for seed in range(20):
            mal = sample(seed)
            if emulator.activates(mal.sha256):
                process = emulator.run(mal.data, bot_ip=0x0A000002)
                assert process.config == mal.config
                assert process.bot.family.name == "mirai"
                return
        pytest.fail("no activating sample in 20 seeds")

    def test_run_raises_on_evasion(self, emulator):
        for seed in range(40):
            mal = sample(seed)
            if not emulator.activates(mal.sha256):
                with pytest.raises(ActivationError):
                    emulator.run(mal.data, bot_ip=0x0A000002)
                return
        pytest.fail("no evading sample in 40 seeds")

    def test_full_activation_rate_possible(self):
        emulator = MipsEmulator(activation_rate=1.0)
        assert all(emulator.activates(sample(s).sha256) for s in range(30))

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            MipsEmulator(activation_rate=0.0)
        with pytest.raises(ValueError):
            MipsEmulator(activation_rate=1.5)
