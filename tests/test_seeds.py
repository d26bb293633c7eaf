"""Sub-stream seeds, and the coin-bit kernel held to numpy's own draws."""

import random

import numpy as np
import pytest

from otmbench.seeds import _coin_bits, derive_seed

_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
_SIZES = (0, 1, 3, 4, 5, 15, 63, 64, 65)


def _oracle(seed, sizes):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=s, dtype=np.uint8) for s in sizes]


def _assert_draws(requests):
    got = _coin_bits(*requests)
    assert len(got) == len(requests)
    for (seed, sizes), arrays in zip(requests, got):
        assert len(arrays) == len(sizes)
        for g, w in zip(arrays, _oracle(seed, sizes)):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes()), \
                (seed, sizes)


def test_coin_bits_match_generator_integers():
    # successive integers(0, 2, uint8) calls on one fresh generator per seed,
    # 1 to 4 seeds per kernel call: each integers call starts on a fresh
    # uint32, so a size that is not a multiple of 4 leaves bytes unread
    # before the next call
    pick = random.Random(16)
    seeds = _EDGE_SEEDS + [pick.getrandbits(pick.choice((1, 8, 31, 32, 33, 63, 64)))
                           for _ in range(20_000)]
    while seeds:
        lanes = pick.randint(1, 4)
        _assert_draws([(seeds.pop(), tuple(pick.choices(_SIZES, k=pick.randint(1, 3))))
                       for _ in range(min(lanes, len(seeds)))])
    # every size 0..70 in every call position, next to sizes of every residue
    # mod 4, on the edge seeds, four to a kernel call
    for s in range(71):
        for sizes in ((s,), (s, 3), (5, s), (1, s, 2), (s, s, s)):
            for seeds in (_EDGE_SEEDS[:4], _EDGE_SEEDS[2:]):
                _assert_draws([(seed, sizes) for seed in seeds])


@pytest.mark.parametrize("seed", [-1, 2**64, 2**200, 1.0, np.float64(2.0), True, np.int64(7),
                                  np.uint64(5), "7", None])
@pytest.mark.parametrize("lane", [0, 2])
def test_coin_bits_refuse_seeds_outside_the_kernel(seed, lane):
    requests = [(1, (3,)), (2, (3,))]
    requests.insert(lane, (seed, (3,)))
    with pytest.raises(ValueError, match=r"coin seed must be an int in \[0, 2\^64\)"):
        _coin_bits(*requests)


def test_derive_seed_hashes_the_integer_root():
    # pinned before roots were checked: a numpy integer hashes as its value
    assert derive_seed(1, "messages") == 7428675934506419688
    assert derive_seed(np.int64(-7), "m0") == derive_seed(-7, "m0") == 5248012188639548839
    assert derive_seed(np.uint64(2**64 - 1), "ext0") == 3702347965454309369
    assert all(0 <= derive_seed(root, "x") < 2**64 for root in (-(2**70), 0, 2**200))


@pytest.mark.parametrize("root", [1.0, np.float64(1.0), True, np.bool_(False), None, "1",
                                  b"1", [1], np.array([1])])
def test_derive_seed_refuses_non_integer_roots(root):
    with pytest.raises(ValueError, match="seed must be an integer"):
        derive_seed(root, "x")
