"""The MIPS emulation layer (QEMU stand-in).

Real MalNet boots each binary under QEMU full-system emulation.  Our
synthetic binaries carry their behavior in an (optionally obfuscated)
config section, so "emulation" means: parse the ELF, reject non-MIPS-32B
inputs, run the unpacking the startup stub would run (XOR table
deobfuscation), and hand back a live :class:`~repro.botnet.bot.Bot`.

Activation is imperfect, exactly as in the paper: emulation environments
miss device quirks and some samples detect the sandbox and abort.  The
paper measures a ~90% activation rate (section 6f); we model it as a
deterministic per-sample coin so that re-running a sample reproduces the
same outcome.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..binary.config import BotConfig, ConfigError, unpack_config
from ..binary.elf import ElfError, ElfImage
from ..botnet.bot import Bot

#: Fraction of well-formed samples that activate under emulation (§6f).
ACTIVATION_RATE = 0.90


class EmulationError(RuntimeError):
    """The binary could not be loaded at all (not MIPS 32B ELF, corrupt)."""


class ActivationError(RuntimeError):
    """The binary loaded but did not exhibit behavior (evasion/env gap)."""


@dataclass
class EmulatedProcess:
    """A successfully activated sample: its recovered config and bot."""

    sha256: str
    config: BotConfig
    bot: Bot


class MipsEmulator:
    """Loads MIPS 32B ELF samples and activates their behavior model.

    The ``machines`` parameter implements the paper's future-work
    extension (section 6d): pass additional ``e_machine`` values (e.g.
    ``EM_ARM``) to emulate other 32-bit architectures.  The default is
    MIPS-only, matching the published study.
    """

    def __init__(self, activation_rate: float = ACTIVATION_RATE,
                 machines: frozenset[int] | None = None):
        if not 0 < activation_rate <= 1:
            raise ValueError("activation_rate must be in (0, 1]")
        from ..binary.elf import EM_MIPS

        self._activation_rate = activation_rate
        self.machines = machines if machines is not None else frozenset({EM_MIPS})
        #: the last successful load, ``(sha256 argument, data, (sha256,
        #: config))``: a sample's offline, liveness and observe runs follow
        #: one another, and a config is never written once unpacked
        self._last_load: tuple | None = None

    def load(self, data: bytes,
             sha256: str | None = None) -> tuple[str, BotConfig]:
        """Parse and unpack a binary; returns (sha256, recovered config).

        ``sha256`` lets callers that already digested the bytes (the
        collection pull indexes feeds by hash) skip re-hashing here.
        """
        if sha256 is None:
            sha256 = hashlib.sha256(data).hexdigest()
        try:
            image = ElfImage.parse(data)
        except ElfError as exc:
            raise EmulationError(f"not a loadable ELF: {exc}") from exc
        if image.machine not in self.machines:
            from ..binary.elf import machine_name

            raise EmulationError(
                f"unsupported CPU architecture: {machine_name(image.machine)}"
            )
        section = image.section(".config")
        if section is None:
            raise EmulationError("no behavior payload in binary")
        try:
            config = unpack_config(section.data)
        except ConfigError as exc:
            raise EmulationError(f"corrupt config table: {exc}") from exc
        return sha256, config

    def activates(self, sha256: str) -> bool:
        """Deterministic activation coin for a sample hash."""
        digest = hashlib.sha256(f"activation|{sha256}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64 < self._activation_rate

    def run(self, data: bytes, bot_ip: int,
            sha256: str | None = None) -> EmulatedProcess:
        """Load and activate; raises :class:`ActivationError` on evasion.

        The load is reused from the previous call when ``data`` and
        ``sha256`` are the same; a load that failed is never kept.  The
        activation coin, the bot's stream and the bot are new each call.
        """
        last = self._last_load
        if last is None or last[0] != sha256 or last[1] != data:
            last = self._last_load = (sha256, data,
                                      self.load(data, sha256=sha256))
        sha256, config = last[2]
        if not self.activates(sha256):
            raise ActivationError(f"sample {sha256[:12]} did not activate")
        bot_rng = random.Random(int(sha256[:16], 16))
        return EmulatedProcess(sha256=sha256, config=config,
                               bot=Bot(config, bot_ip, bot_rng))
