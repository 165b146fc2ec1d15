"""The stable seeds and draw-exact word kernels of :mod:`repro.determinism`.

A word kernel must leave what the per-call loop it replaces leaves: the
same values and the same generator state, so every comparison here
includes ``getstate()``.  The CPython facts the kernels rest on are
named tests in ``tests/test_sandbox_handshaker.py``.
"""

import random

import pytest

from repro.determinism import (
    accepted_words,
    draw_accepted,
    draw_pairs,
    shard_of,
    stable_seed,
    stable_unit,
)


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
        # one run of words serves every power-of-two bound alike
        for m in (0, 1, 8, 14, 16, 31):
            kernel, direct = twin_rngs(count + m, advance)
            words = accepted_words(draw_accepted(kernel, count))
            assert [w >> (31 - m) for w in words] == \
                [direct._randbelow(2 ** m) for _ in range(count)]
            assert kernel.getstate() == direct.getstate()

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
        data = bytes([1, 0, 0, 0x7F,  0, 0, 0, 0x80,  2, 0, 0, 0])
        assert accepted_words(data) == [0x7F000001, 2]


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
