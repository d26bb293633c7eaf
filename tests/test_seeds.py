"""The coin-bit draws that every fresh-seed bit consumer shares."""

import random

import numpy as np
import pytest

from otmbench.seeds import _coin_bits


def _oracle(seed, sizes):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=s, dtype=np.uint8) for s in sizes]


def test_coin_bits_match_generator_integers():
    # successive integers(0, 2, uint8) calls on one fresh generator: each call
    # starts on a fresh uint32, so a size that is not a multiple of 4 leaves
    # bytes unread before the next call
    pick = random.Random(16)
    seeds = [0, True, np.uint64(2**64 - 1), 2**64, 2**200, np.int64(7), np.uint8(255)]
    seeds += [pick.getrandbits(pick.choice((1, 8, 32, 63, 64, 65, 128, 200)))
              for _ in range(2000)]
    for i, seed in enumerate(seeds):
        sizes = [pick.randrange(71) for _ in range(1 + i % 3)]
        got = _coin_bits(seed, *sizes)
        assert len(got) == len(sizes)
        for g, w in zip(got, _oracle(seed, sizes)):
            assert g.dtype == w.dtype and g.shape == w.shape, (seed, sizes)
            assert g.tolist() == w.tolist(), (seed, sizes)
    # every size 0..70 in every call position, next to sizes of every residue mod 4
    for s in range(71):
        for sizes in ((s,), (s, 3), (5, s), (1, s, 2), (s, s, s)):
            assert [g.tolist() for g in _coin_bits(s, *sizes)] == \
                [w.tolist() for w in _oracle(s, sizes)], sizes


def test_coin_bits_refuse_seeds_as_default_rng_does():
    for seed in (-1, np.int64(-3), 1.5, np.float64(2.0), "7"):
        with pytest.raises(Exception) as want:
            np.random.default_rng(seed)
        with pytest.raises(want.type):
            _coin_bits(seed, 3)
