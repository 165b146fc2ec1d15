"""Synthetic malware sample builder.

Produces the MIPS 32B ELF binaries the collection pipeline ingests.  Each
sample is a real ELF32 image whose ``.config`` section carries the bot's
operational parameters (obfuscated for families that do so), with
plausible ``.text`` (random MIPS-encoded words) and ``.rodata`` (shell
strings, busybox artifacts, the loader name) so that strings-based triage
and YARA-like rules have something genuine to match.

The builder also produces *chaff*: ARM/x86 binaries and non-ELF junk, used
to validate the collector's MIPS 32B filter.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..botnet.families import FAMILIES, get_family
from ..determinism import accepted_high16, draw_accepted
from .config import BotConfig, pack_config
from .elf import EM_386, EM_ARM, EM_MIPS, ElfImage

#: Strings commonly observed in IoT malware .rodata (busybox probes, shell
#: fragments, scanner credentials).  These are what crowd-sourced YARA
#: rules key on.
_COMMON_RODATA = (
    b"/bin/busybox",
    b"POST /cdn-cgi/",
    b"enable\x00system\x00shell\x00sh\x00",
    b"/dev/watchdog",
    b"/proc/net/tcp",
    b"GET /bins/",
)

_FAMILY_MARKERS: dict[str, bytes] = {
    "mirai": b"/bin/busybox MIRAI",
    "gafgyt": b"PONG!\x00BOGOMIPS\x00gafgyt",
    "tsunami": b"NICK %s\x00USER %s localhost localhost :%s\x00tsunami",
    "daddyl33t": b"daddyl33t\x00HYDRASYN\x00UDPRAW",
    "mozi": b"Mozi.m\x00dht.transmissionbt.com",
    "hajime": b"atk.\x00hajime\x00.i.",
    "vpnfilter": b"vpnfilter\x00tor\x00ssler",
}


@dataclass
class MalwareSample:
    """One synthetic binary plus its build-time ground truth."""

    data: bytes
    config: BotConfig
    family: str
    variant: str
    #: build-time identity; the pipeline must rediscover everything else
    sha256: str = field(init=False)

    def __post_init__(self) -> None:
        self.sha256 = hashlib.sha256(self.data).hexdigest()

    def __len__(self) -> int:
        return len(self.data)


#: common MIPS opcodes (addiu, lw, sw, jal, nop, beq, addiu sp, jr ra)
_MIPS_OPCODES = (0x24000000, 0x8C000000, 0xAC000000, 0x0C000000, 0x00000000,
                 0x10000000, 0x27BD0000, 0x03E00008)
#: an opcode word's ``hi`` byte (``w >> 23``) -> bytes 0, 1 and 3 of its
#: opcode, big-endian (byte 2 of every opcode is 0; only ``jr ra`` has a
#: byte 3)
_OPCODE_BYTE0, _OPCODE_BYTE1, _OPCODE_BYTE3 = (
    bytes([(_MIPS_OPCODES[hi >> 5] >> shift) & 0xFF for hi in range(256)])
    for shift in (24, 16, 0))

#: chaff kinds :func:`build_chaff` makes
_CHAFF_KINDS = ("arm", "x86", "junk", "truncated")


def _random_bytes(rng: random.Random, count: int) -> bytes:
    """``bytes(rng.randrange(256) for _ in range(count))``, draw for draw:
    the draw is ``w >> 23``, the ``hi`` plane of the accepted words."""
    return accepted_high16(draw_accepted(rng, count))[0]


def _mips_text(rng: random.Random, words: int) -> bytes:
    """Plausible big-endian MIPS machine words for a ``.text`` section.

    Mixes common opcodes (addiu, lw, sw, jal, nop) so entropy resembles
    real code rather than random bytes.  Word ``i`` is
    ``choice(_MIPS_OPCODES) | randrange(1 << 16)``, drawn in bulk: both
    bounds are powers of two, so the accepted words alternate opcode
    ``a`` and immediate ``b`` (see :mod:`repro.determinism`).  The
    opcode is ``a >> 28``, the top 3 bits of ``a``'s ``hi`` byte; the
    immediate ``b >> 15`` is ``b``'s ``(hi, lo)``.  The words are
    written big-endian one byte plane at a time.
    """
    hi, lo = accepted_high16(draw_accepted(rng, 2 * words))
    opcode = hi[0::2]
    text = bytearray(4 * words)
    text[0::4] = opcode.translate(_OPCODE_BYTE0)
    text[1::4] = opcode.translate(_OPCODE_BYTE1)
    text[2::4] = hi[1::2]
    text[3::4] = (int.from_bytes(lo[1::2], "little")
                  | int.from_bytes(opcode.translate(_OPCODE_BYTE3), "little")
                  ).to_bytes(words, "little")
    return bytes(text)


def _arm_text(rng: random.Random, words: int) -> bytes:
    """Plausible little-endian ARM (A32) words (mov, ldr, str, bl, bx lr)."""
    opcodes = (0xE3A00000, 0xE5900000, 0xE5800000, 0xEB000000, 0xE12FFF1E,
               0xE92D4800, 0xE8BD8800)
    out = bytearray()
    for _ in range(words):
        word = rng.choice(opcodes) | rng.randrange(0, 1 << 12)
        out += word.to_bytes(4, "little")
    return bytes(out)


def _rodata(rng: random.Random, config: BotConfig) -> bytes:
    """Assemble a .rodata blob with family markers and config echoes."""
    chunks = [_FAMILY_MARKERS.get(config.family, b"")]
    chunks.extend(rng.sample(_COMMON_RODATA, k=rng.randrange(2, 5)))
    if config.loader_name:
        chunks.append(config.loader_name.encode("ascii") + b"\x00")
    if config.downloader:
        chunks.append(b"wget http://" + config.downloader.encode("ascii") + b"/")
    # Unobfuscated families leak the C2 endpoint as a plain string.
    family = FAMILIES.get(config.family)
    if config.c2_host and (family is None or not family.obfuscated_config):
        chunks.append(config.c2_host.encode("ascii") + b"\x00")
    rng.shuffle(chunks)
    return b"\x00".join(chunks)


def build_sample(
    config: BotConfig,
    rng: random.Random,
    variant: str = "",
    endianness: str = "big",
    arch: str = "mips",
) -> MalwareSample:
    """Build one ELF sample embedding ``config``.

    ``arch`` is ``"mips"`` (default, big-endian as on most consumer IoT
    devices) or ``"arm"`` (little-endian) — the multi-architecture
    extension of paper section 6d.
    """
    family = get_family(config.family)
    if arch == "mips":
        image = ElfImage(machine=EM_MIPS, endianness=endianness)
        text = _mips_text(rng, rng.randrange(256, 2048))
    elif arch == "arm":
        image = ElfImage(machine=EM_ARM, endianness="little")
        text = _arm_text(rng, rng.randrange(256, 2048))
    else:
        raise ValueError(f"unsupported build architecture {arch!r}")
    image.add_section(".text", text)
    image.add_section(".rodata", _rodata(rng, config))
    image.add_section(".config", pack_config(config, family.obfuscated_config))
    return MalwareSample(
        data=image.encode(),
        config=config,
        family=config.family,
        variant=variant or config.variant or family.variants[0],
    )


def build_chaff(rng: random.Random, kind: str = "arm") -> bytes:
    """Build a non-MIPS-32B artifact for collector-filter testing.

    ``kind`` is one of ``"arm"``, ``"x86"``, ``"junk"`` (not an ELF at
    all), or ``"truncated"`` (ELF magic, cut short); any other kind
    raises ``ValueError`` before drawing.
    """
    if kind not in _CHAFF_KINDS:
        raise ValueError(f"unsupported chaff kind {kind!r}")
    if kind == "junk":
        return _random_bytes(rng, rng.randrange(64, 512))
    if kind == "truncated":
        return b"\x7fELF" + _random_bytes(rng, 8)
    machine = EM_ARM if kind == "arm" else EM_386
    image = ElfImage(machine=machine, endianness="little")
    image.add_section(".text", _random_bytes(rng, 256))
    return image.encode()
