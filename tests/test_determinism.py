"""The stable seeds and draw-exact word kernels of :mod:`repro.determinism`.

A word kernel must leave what the per-call loop it replaces leaves: the
same values and the same generator state, so every comparison of a draw
here includes ``getstate()``; the byte-plane decoder is held to a frozen
per-word decode.  The CPython facts the kernels rest on are named tests
in ``tests/test_sandbox_handshaker.py``.
"""

import random
import sys
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.determinism import (
    accepted_high16,
    draw_accepted,
    draw_pairs,
    shard_of,
    stable_seed,
    stable_unit,
)


def frozen_accepted_words(data):
    """Frozen per-word decode :func:`accepted_high16` replaced: the words
    below ``2**31`` of a run, in draw order."""
    words = array("I", data)
    if sys.byteorder == "big":
        words.byteswap()
    return [w for w in words if w < 0x80000000]


def frozen_draw_accepted(rng, count):
    """Frozen :func:`draw_accepted` that counted each round's accepted
    words by deleting the top bytes of the rejected ones."""
    chunks = []
    missing = count
    while missing:
        chunk = rng.randbytes(4 * missing)
        chunks.append(chunk)
        missing -= len(chunk[3::4].translate(None, bytes(range(128, 256))))
    return b"".join(chunks)


class RecordingRandom(random.Random):
    """A generator that records the size of every ``randbytes`` call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.randbytes_calls = []

    def randbytes(self, n):
        self.randbytes_calls.append(n)
        return super().randbytes(n)


def high16_planes(words):
    """``[w >> 15 for w in words if w < 2**31]`` as ``(hi, lo)`` bytes."""
    draws = [w >> 15 for w in words if w < 2 ** 31]
    return bytes(v >> 8 for v in draws), bytes(v & 0xFF for v in draws)


def run_of(words):
    """``words`` as ``randbytes`` gives them: little-endian, in order."""
    return b"".join(w.to_bytes(4, "little") for w in words)


def twin_rngs(seed, advance):
    """Two generators in the same state, ``advance`` draws past ``seed``."""
    a, b = random.Random(seed), random.Random(seed)
    for rng in (a, b):
        for _ in range(advance):
            rng.random()
    return a, b


def never(_value):
    return False


def every_third(value):
    return value % 3 == 0


def reference_pairs(rng, count, start, stop, reject, options):
    """The per-call loop :func:`draw_pairs` replaces."""
    pairs = []
    for _ in range(count):
        value = rng.randrange(start, stop)
        while reject(value):
            value = rng.randrange(start, stop)
        pairs.append((value, rng.choice(options)))
    return pairs


class TestStableSeeds:
    def test_values_are_pinned(self):
        # sha256-derived, so the same on every process, host and Python
        assert stable_seed("sandbox", 20220322, "ab") == 7507694695729939390
        assert stable_unit("probe", 7) == 0.4368211607086901
        assert shard_of("ffee" + "0" * 60, 7) == 5

    def test_shard_of_one_shard_is_zero(self):
        assert shard_of("ffee" + "0" * 60, 1) == 0
        assert shard_of("ffee" + "0" * 60, 0) == 0


class TestDrawAccepted:
    @pytest.mark.parametrize("advance", [0, 3])
    @pytest.mark.parametrize("count", [0, 1, 2, 300, 4001])
    def test_equals_power_of_two_randbelow(self, count, advance):
        # one run of words serves every power-of-two bound alike, read
        # per word or, for m <= 16, off the kernel's (hi, lo) planes
        for m in (0, 1, 8, 14, 16, 31):
            kernel, direct = twin_rngs(count + m, advance)
            data = draw_accepted(kernel, count)
            expected = [direct._randbelow(2 ** m) for _ in range(count)]
            assert [w >> (31 - m) for w in frozen_accepted_words(data)] == \
                expected
            if m <= 16:
                hi, lo = accepted_high16(data)
                assert [(h << 8 | l) >> (16 - m) for h, l in zip(hi, lo)] \
                    == expected
            assert kernel.getstate() == direct.getstate()

    @pytest.mark.parametrize("count", [1, 2, 999, 40000])
    def test_counts_rounds_as_the_delete_pass_did(self, count):
        # the table count must ask randbytes for exactly the sizes the
        # delete count asked for, round after round
        kernel, frozen = RecordingRandom(count), RecordingRandom(count)
        assert draw_accepted(kernel, count) == \
            frozen_draw_accepted(frozen, count)
        assert kernel.randbytes_calls == frozen.randbytes_calls
        assert kernel.getstate() == frozen.getstate()
        if count >= 999:
            assert len(kernel.randbytes_calls) >= 8

    def test_is_the_shortest_run(self):
        for count in (1, 2, 50, 999):
            rng = random.Random(count)
            data = draw_accepted(rng, count)
            words = [int.from_bytes(data[i:i + 4], "little")
                     for i in range(0, len(data), 4)]
            assert sum(w < 2 ** 31 for w in words) == count
            assert words[-1] < 2 ** 31      # no word drawn past the last
        rng = random.Random(0)
        state = rng.getstate()
        assert draw_accepted(rng, 0) == b""
        assert rng.getstate() == state

    def test_words_are_little_endian_on_every_host(self):
        data = bytes([0x00, 0x80, 0x01, 0x7F,  0, 0, 0, 0x80,
                      0xFF, 0x7F, 0xAB, 0x12])
        # 0x7F018000 >> 15 == 0xFE03; 0x80000000 is rejected;
        # 0x12AB7FFF >> 15 == 0x2556
        assert accepted_high16(data) == (b"\xfe\x25", b"\x03\x56")


class TestAcceptedHigh16:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 32 - 1)
                    | st.sampled_from([0, 2 ** 15 - 1, 2 ** 15, 2 ** 31 - 1,
                                       2 ** 31, 2 ** 32 - 1]),
                    max_size=300))
    @example([])
    @example([0, 1, 0x7FFF, 0x8000, 0x12AB7FFF, 2 ** 31 - 1])
    @example([2 ** 31, 0x80000001, 0xFFFF8000, 2 ** 32 - 1])
    def test_planes_equal_the_per_word_decode(self, words):
        assert accepted_high16(run_of(words)) == high16_planes(words)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 4001])
    def test_refuses_a_partial_word(self, size):
        with pytest.raises(ValueError):
            accepted_high16(bytes(size))


class TestDrawPairs:
    @pytest.mark.parametrize("options", [
        (23,), (23, 2323), (23, 2323, 80), (1, 2, 3, 4), (1, 2, 3, 4, 5),
        tuple(range(13)),
    ], ids=len)
    @pytest.mark.parametrize("start, stop, reject", [
        (0x01000000, 0xDF000000, never),
        (0x01000000, 0xDF000000, every_third),
        (0, 1, never),
        (5, 17, every_third),
        (0, 2 ** 32 - 1, never),
    ], ids=["scan", "scan-rejecting", "one", "small", "widest"])
    def test_equals_randrange_then_choice(self, options, start, stop,
                                          reject):
        kernel, direct = twin_rngs(stop - start + len(options), 5)
        for count in (40, 1, 0, 333):       # state carries across calls
            assert draw_pairs(kernel, count, start, stop, reject,
                              options) == \
                reference_pairs(direct, count, start, stop, reject, options)
            assert kernel.getstate() == direct.getstate()

    @pytest.mark.parametrize("start, stop, options", [
        (0, 2 ** 32, (1,)),             # two words an attempt
        (0, 1, range(2 ** 32)),
        (7, 7, (1,)),                   # randrange(7, 7) is empty
        (0, 1, ()),                     # choice(()) has nothing to pick
    ])
    def test_refuses_bounds_past_one_word(self, start, stop, options):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            draw_pairs(rng, 1, start, stop, never, options)
        assert rng.getstate() == state
