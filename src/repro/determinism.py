"""Stable seed derivation and draw-exact word kernels.

The sharded study runner requires every per-sample random draw to be a
pure function of ``(world seed, sample identity)`` — never of how many
samples some other sandbox analyzed first.  Python's builtin ``hash`` is
salted per process and ``random.Random`` streams encode consumption
order, so both are unusable as cross-process determinism primitives.
Everything here goes through SHA-256, which is stable across processes,
platforms, and Python versions.

The word kernels draw in bulk what per-call ``randrange``/``choice``
loops drew one value at a time, leaving the same values *and* the same
generator state behind.  They rest on CPython's word contract, stated
here once (``tests/test_sandbox_handshaker.py`` checks each fact by
name, ``tests/test_determinism.py`` checks the kernels):

1. ``randrange(a, b)`` is ``a + _randbelow(b - a)`` and ``choice(seq)``
   is ``seq[_randbelow(len(seq))]``; ``choice`` draws even from a
   one-item sequence.
2. ``_randbelow(n)`` repeats attempts ``getrandbits(k)``, with
   ``k = n.bit_length()``, until one is ``< n``.  For ``k <= 32`` an
   attempt is one 32-bit Mersenne Twister word ``w`` shifted right by
   ``32 - k``.  So for ``n < 2**32`` each attempt is exactly one word,
   accepted iff ``w >> (32 - k) < n``.  ``_randbelow(2**32)`` has
   ``k = 33`` and takes two words per attempt: the kernels refuse it.
3. For ``n = 2**m`` the test is ``w < 2**31``, whatever ``m``: the
   accepted words serve any mix of power-of-two bounds, the draw being
   ``w >> (31 - m)``.
4. ``randbytes(4 * n)`` is the next ``n`` words, each little-endian, on
   every host.

A kernel asks ``randbytes`` only for the words it still needs at the
least, so it never draws a word the per-call loop would not have.

:func:`accepted_high16` decodes a run of words without a Python step
per word.  Every consumer reads at most ``w >> 15`` of an accepted word
(16 bits: 15-30), so the kernel works on byte planes, ``data[k::4]``
holding byte ``k`` of every word (fact 4 makes that layout the same on
every host).  It cuts bits 15-30 into chunks of at most 7 bits (24-30,
17-23 and 15-16), each in a byte whose bit 7 is the word's bit 31, and
interleaves the three chunk planes, so one ``translate(None,
bytes(range(128, 256)))`` drops exactly the rejected words' bytes.
Bytewise ``translate`` tables and ``int`` ORs put the kept chunks back
together as the planes of ``w >> 23`` and ``(w >> 15) & 0xFF``.
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array
from typing import Callable, Sequence

__all__ = ["accepted_high16", "draw_accepted", "draw_pairs", "shard_of",
           "stable_seed", "stable_unit"]

if array("I").itemsize != 4:
    raise ImportError("repro.determinism needs a 4-byte array('I') word")


def _table(byte_map: Callable[[int], int]) -> bytes:
    """A ``bytes.translate`` table applying ``byte_map`` to every byte."""
    return bytes([byte_map(x) for x in range(256)])


#: bytes with bit 7 set: a top byte of a rejected word, or a chunk of one
_HIGH_BYTES = bytes(range(128, 256))
#: a word's top byte -> 1 if the word is accepted (bit 31 clear), else 0
_ACCEPTED = _table(lambda x: int(x < 0x80))
#: a word's top byte -> its bit 31, in place
_BIT7 = _table(lambda x: x & 0x80)
#: byte 2 -> bits 17-23; byte 2 -> bit 16 and byte 1 -> bit 15, at 1 and 0
_SHR1 = _table(lambda x: x >> 1)
_BIT0_TO_1 = _table(lambda x: (x & 1) << 1)
_SHR7 = _table(lambda x: x >> 7)
#: kept chunks -> their bits of ``w >> 23`` (24-30, 23) and of
#: ``(w >> 15) & 0xFF`` (17-22; 15-16 are the low chunk as it is)
_SHL1 = _table(lambda x: (x << 1) & 0xFF)
_SHR6 = _table(lambda x: x >> 6)
_LOW6_SHL2 = _table(lambda x: (x & 0x3F) << 2)


def _digest(parts: tuple) -> bytes:
    return hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()


def stable_seed(*parts) -> int:
    """A 64-bit RNG seed derived only from ``parts``.

    ``random.Random(stable_seed("sandbox", world_seed, sha256))`` yields
    the same stream in every process that derives it, regardless of what
    ran before — the property the serial-vs-sharded equivalence rests on.
    """
    return int.from_bytes(_digest(parts)[:8], "big")


def stable_unit(*parts) -> float:
    """A uniform [0, 1) draw derived only from ``parts``."""
    return int.from_bytes(_digest(parts)[:8], "big") / 2**64


def shard_of(sha256: str, shard_count: int) -> int:
    """The shard owning a sample hash.

    Partitioning by sha256 makes cross-shard dedup structural: every
    occurrence of a binary, on any study day, lands in the same shard,
    so each worker's ``seen_hashes`` set is a complete dedup record for
    the hashes it can ever see.
    """
    if shard_count <= 1:
        return 0
    return int(sha256[:16], 16) % shard_count


# -- draw-exact word kernels --------------------------------------------------


def _words(data: bytes) -> array:
    """``randbytes`` output as 32-bit words, in draw order (fact 4)."""
    words = array("I", data)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _shift(n: int) -> int:
    """The right shift that turns one word into one ``_randbelow(n)``
    attempt (fact 2)."""
    k = n.bit_length()
    if not 1 <= k <= 32:
        raise ValueError(f"_randbelow({n}) is not one word per attempt")
    return 32 - k


def draw_accepted(rng: random.Random, count: int) -> bytes:
    """The shortest run of ``rng``'s next words holding ``count`` words
    below ``2**31``, as ``randbytes`` gives it.

    These are the attempts of ``count`` calls of ``_randbelow(2**m)``
    (fact 3), so the generator ends where those calls leave it.  Each
    round's accepted words are counted in C without a branch per word
    (a 0/1 table over the top bytes, then ``int.bit_count``); the words
    are decoded only by :func:`accepted_high16`, which may run much
    later.
    """
    chunks: list[bytes] = []
    missing = count
    while missing:
        chunk = rng.randbytes(4 * missing)
        chunks.append(chunk)
        missing -= int.from_bytes(chunk[3::4].translate(_ACCEPTED),
                                  "little").bit_count()
    return b"".join(chunks)


def accepted_high16(data: bytes) -> tuple[bytes, bytes]:
    """The planes ``(hi, lo)`` of ``w >> 15`` for each word ``w`` below
    ``2**31`` in ``data`` (a :func:`draw_accepted` run), in draw order:
    ``hi[i]`` is ``w >> 23`` and ``lo[i]`` is ``(w >> 15) & 0xFF``.

    Word ``w`` draws ``w >> (31 - m)`` from ``_randbelow(2**m)``, so any
    ``m <= 16`` reads its draw off these two bytes.
    """
    if len(data) % 4:
        raise ValueError(f"{len(data)} bytes are not a run of 4-byte words")
    top, mid = data[3::4], data[2::4]
    n = len(top)
    flag = int.from_bytes(top.translate(_BIT7), "little")
    chunks = bytearray(3 * n)
    chunks[0::3] = top                                      # bits 24-30
    chunks[1::3] = (int.from_bytes(mid.translate(_SHR1), "little")
                    | flag).to_bytes(n, "little")           # bits 17-23
    chunks[2::3] = (int.from_bytes(mid.translate(_BIT0_TO_1), "little")
                    | int.from_bytes(data[1::4].translate(_SHR7), "little")
                    | flag).to_bytes(n, "little")           # bits 15-16
    kept = chunks.translate(None, _HIGH_BYTES)
    bits24, bits17, bits15 = kept[0::3], kept[1::3], kept[2::3]
    m = len(bits24)
    hi = (int.from_bytes(bits24.translate(_SHL1), "little")
          | int.from_bytes(bits17.translate(_SHR6), "little"))
    lo = (int.from_bytes(bits17.translate(_LOW6_SHL2), "little")
          | int.from_bytes(bits15, "little"))
    return hi.to_bytes(m, "little"), lo.to_bytes(m, "little")


def draw_pairs(rng: random.Random, count: int, start: int, stop: int,
               reject: Callable[[int], bool],
               options: Sequence) -> list[tuple]:
    """``count`` pairs ``(x, option)``, drawn as a loop of
    ``x = randrange(start, stop)``, redrawn while ``reject(x)``, then
    ``choice(options)`` draws them — values and generator state alike.

    Each pair takes at least two words, so the kernel asks for two per
    missing pair, less one while an ``x`` waits for its option.
    """
    width = stop - start
    x_shift = _shift(width)
    n = len(options)
    option_shift = _shift(n)
    pairs: list[tuple] = []
    append = pairs.append
    pending = None          # an accepted x still waiting for its option
    while len(pairs) < count:
        need = 2 * (count - len(pairs)) - (pending is not None)
        for w in _words(rng.randbytes(4 * need)):
            if pending is None:
                r = w >> x_shift
                if r < width and not reject(start + r):
                    pending = start + r
            else:
                r = w >> option_shift
                if r < n:
                    append((pending, options[r]))
                    pending = None
    return pairs
