"""Binary linear codes, BSC sampling, and ML decoding."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from otmbench.errors import ResourceLimitError
from otmbench.f2codes import (
    MAX_SAMPLED_BITS,
    LinearCode,
    _popcount,
    bits_to_int,
    encode,
    exact_failure_prob,
    f2_rank,
    int_to_bits,
    mc_failure_prob,
    ml_decode,
    ml_decode_packed,
    random_code,
)

CHANNEL_P = math.sin(math.pi / 8) ** 2


def repetition_code(n):
    return LinearCode(n=n, k=1, generator=np.ones((n, 1), dtype=np.uint8), seed=0)


def test_bits_int_roundtrip():
    for v in (0, 1, 5, 100, 2**12 - 1):
        assert bits_to_int(int_to_bits(v, 13)) == v
    assert int_to_bits(5, 4).tolist() == [0, 1, 0, 1]


def test_f2_rank_known_cases():
    assert f2_rank(np.eye(4, dtype=np.uint8)) == 4
    assert f2_rank(np.zeros((3, 3), dtype=np.uint8)) == 0
    # duplicated row collapses the rank
    m = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.uint8)
    assert f2_rank(m) == 2


def test_f2_rank_invariant_under_row_swap():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.integers(0, 2, size=(6, 4), dtype=np.uint8)
        perm = rng.permutation(6)
        assert f2_rank(m) == f2_rank(m[perm])


def test_random_code_shape_and_rank():
    code = random_code(10, 4, seed=42)
    assert code.generator.shape == (10, 4)
    assert f2_rank(code.generator) == 4
    assert random_code(10, 4, seed=42).generator.tolist() == code.generator.tolist()
    ints = code.codeword_ints
    assert len(ints) == 16
    assert len(set(ints.tolist())) == 16, "full column rank means distinct codewords"


def test_encode_linearity():
    code = random_code(9, 3, seed=5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.integers(0, 2, size=3, dtype=np.uint8)
        b = rng.integers(0, 2, size=3, dtype=np.uint8)
        lhs = encode(code, (a ^ b))
        rhs = encode(code, a) ^ encode(code, b)
        assert np.array_equal(lhs, rhs)


def test_codewords_ordered_by_message_integer():
    code = random_code(6, 3, seed=11)
    for idx in range(8):
        m = int_to_bits(idx, 3)
        assert np.array_equal(code.codewords[idx], encode(code, m))


def oracle_decode(code, word):
    # independent nearest-codeword rule; ties -> smallest message integer
    dists = [int((cw ^ word).sum()) for cw in code.codewords]
    best = dists.index(min(dists))
    return int_to_bits(best, code.k)


def test_ml_decode_matches_oracle_small_codes():
    for n, k, seed in ((5, 2, 0), (6, 3, 1), (8, 4, 2)):
        code = random_code(n, k, seed)
        packed = ml_decode_packed(code, np.arange(2**n))
        for w in range(2**n):
            word = int_to_bits(w, n)
            want = oracle_decode(code, word)
            assert np.array_equal(ml_decode(code, word), want)
            assert packed[w] == bits_to_int(want)


def test_ml_decode_tie_break_prefers_smaller_message():
    # word 01 sits at distance 1 from both codewords of the 2-bit
    # repetition code; the tie must resolve to message 0
    code = repetition_code(2)
    out = ml_decode(code, np.array([0, 1], dtype=np.uint8))
    assert bits_to_int(out) == 0


def test_repetition3_exact_failure_closed_form():
    """Majority vote on 3 bits fails on >= 2 flips: 3p^2(1-p) + p^3."""
    code = repetition_code(3)
    p = CHANNEL_P
    want = 3 * p**2 * (1 - p) + p**3
    assert exact_failure_prob(code, p) == pytest.approx(want, abs=1e-12)
    assert exact_failure_prob(code, 0.0) == 0.0


def tie_heavy_codes():
    repeated_row = np.array([[1, 0], [1, 0], [0, 1], [1, 1], [0, 1]], dtype=np.uint8)
    return [
        repetition_code(2),                                  # every error a tie
        repetition_code(4),                                  # ties at weight 2
        LinearCode(n=4, k=4, generator=np.eye(4, dtype=np.uint8)),
        random_code(5, 5, seed=3),                           # k = n
        LinearCode(n=5, k=2, generator=repeated_row),
        random_code(6, 3, seed=1),
        random_code(7, 2, seed=9),
        random_code(6, 4, seed=2),
    ]


def rational_failure(code, p, pick):
    # every (message, error) pair decoded by the nearest-codeword rule,
    # pick choosing among the tied messages, summed as a Fraction
    n, k = code.n, code.k
    cws = [bits_to_int(encode(code, int_to_bits(m, k))) for m in range(2**k)]
    fails = [0] * (n + 1)                  # failing pairs by error weight
    for m in range(2**k):
        for e in range(2**n):
            dists = [bin(cws[m] ^ e ^ cw).count("1") for cw in cws]
            nearest = [u for u, d in enumerate(dists) if d == min(dists)]
            fails[bin(e).count("1")] += pick(nearest) != m
    q = Fraction(p)
    return sum(f * q**w * (1 - q) ** (n - w) for w, f in enumerate(fails)) / 2**k


def test_exact_failure_is_the_rounded_rational_whatever_the_tie_rule():
    for code in tie_heavy_codes():
        for p in (CHANNEL_P, 0.3, 0.5, 0.0, 1.0):
            for pick in (min, max):
                want = float(rational_failure(code, p, pick))
                assert exact_failure_prob(code, p) == want, (code.n, code.k, p, pick)


def test_exact_failure_bounded_in_memory():
    # 2^20 words: a uint8 weight each, counted from int64 XOR blocks of
    # 2^16 cells
    code = random_code(20, 12, seed=4)
    code.codeword_ints
    tracemalloc.start()
    try:
        exact_failure_prob(code, CHANNEL_P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_decode_table_bounded_in_memory():
    # the 4 MiB int32 table of 2^20 words, the dead-prefix levels (under
    # two bytes a word) and one block of at most 2^16 coset cells
    code = random_code(20, 12, seed=3)
    code.codeword_ints
    tracemalloc.start()
    try:
        code.decode_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def scan_decode(code, words):
    # the block scan: argmin over the distances to all 2^k codewords, so
    # ties go to the smallest message; 256 words at a time
    cw = code.codeword_ints
    return np.concatenate([np.argmin(_popcount(words[i:i + 256, None] ^ cw[None, :]), axis=1)
                           for i in range(0, len(words), 256)])


def test_decode_table_matches_scan():
    rng = np.random.default_rng(6)
    cases = [(code, np.arange(2**code.n)) for code in tie_heavy_codes()]
    cases += [(random_code(n, k, seed), rng.integers(0, 2**n, size=20_000))
              for n, k, seed in ((18, 10, 5), (20, 12, 4))]
    for code, words in cases:
        want = scan_decode(code, words)
        assert np.array_equal(code.decode_table[words], want), (code.n, code.k)
        # once the table is cached ml_decode_packed gathers from it even for
        # a few words; bits above n are ignored, as by the scan
        assert np.array_equal(ml_decode_packed(code, words[:50] | (1 << 40)), want[:50])


def test_decode_table_built_when_cheaper_than_scan():
    # 2^11 words of a [12,4] code cost 2^15 distance cells, the price of the
    # 2^12-cell table at 8 distance cells per table cell
    code = random_code(12, 4, seed=2)
    words = np.arange(2048)
    scanned = ml_decode_packed(code, words[:2047])
    ml_decode(code, np.zeros(12, dtype=np.uint8))
    assert "decode_table" not in vars(code)
    assert np.array_equal(ml_decode_packed(code, words)[:2047], scanned)
    assert "decode_table" in vars(code)


def test_decode_table_refused_before_allocating():
    code = random_code(21, 10, seed=1)
    words = np.random.default_rng(0).integers(0, 2**21, size=2048)    # 2^21 cells
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="cells"):
            code.decode_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # past the table budget sampled decoding keeps scanning
    assert np.array_equal(ml_decode_packed(code, words), scan_decode(code, words))


def test_sampled_decoding_bytes_per_seed():
    # the bytes each seed gave under the block scan alone, which the table
    # must reproduce; with a fresh code each call, [18,10] scans at 2000
    # trials and gathers at 5000, [15,3] scans at 5000 and gathers at 40000
    want = {
        (18, 10, 5, 2000): [0.5785, 0.551],
        (18, 10, 5, 5000): [0.5702, 0.5646],
        (15, 3, 1, 2000): [0.0665, 0.0675],
        (15, 3, 1, 5000): [0.0672, 0.0662],
        (15, 3, 1, 40000): [0.0661, 0.065275],
    }
    for (n, k, code_seed, trials), rates in want.items():
        got = [mc_failure_prob(random_code(n, k, code_seed), CHANNEL_P, trials, seed)
               for seed in (0, 1)]
        assert got == rates, (n, k, trials)


def test_sampling_refused_past_bit_budget():
    code = random_code(15, 3, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="sampling budget"):
            mc_failure_prob(code, CHANNEL_P, MAX_SAMPLED_BITS // 15 + 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(ValueError, match="positive"):
        mc_failure_prob(code, CHANNEL_P, 0, seed=0)


def test_trials_must_be_an_integer():
    code = random_code(7, 2, seed=9)
    for trials in (10.0, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            mc_failure_prob(code, CHANNEL_P, trials, seed=0)
    assert mc_failure_prob(code, CHANNEL_P, np.int64(100), seed=0) == mc_failure_prob(
        code, CHANNEL_P, 100, seed=0)


def test_flip_probability_refused_outside_unit_interval():
    # a nan or out-of-range p would read as a silent 0.0 or 1.0 estimate;
    # both estimators refuse it alike, before any table or draw
    for p in (math.nan, 1.5, -0.1, math.inf):
        code = random_code(15, 3, seed=1)
        with pytest.raises(ValueError, match="flip probability must lie in"):
            exact_failure_prob(code, p)
        with pytest.raises(ValueError, match="flip probability must lie in"):
            mc_failure_prob(code, p, MAX_SAMPLED_BITS, seed=0)
        assert "codeword_ints" not in vars(code)


def test_exact_failure_monotone_in_p():
    code = repetition_code(3)
    probs = [exact_failure_prob(code, p) for p in (0.01, 0.1, 0.2, 0.4)]
    assert probs == sorted(probs)


def test_mc_failure_matches_exact():
    code = random_code(7, 2, seed=9)
    exact = exact_failure_prob(code, CHANNEL_P)
    trials = 100_000
    emp = mc_failure_prob(code, CHANNEL_P, trials=trials, seed=17)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(emp - exact) <= 4 * sigma, f"empirical {emp} vs exact {exact}"


def test_mc_failure_counts_high_bits():
    # the codewords differ only in positions 0 and 1, which pack to bits
    # 51 and 50 of the word; a noiseless channel must never fail
    gen = np.zeros((52, 2), dtype=np.uint8)
    gen[1, 0] = 1
    gen[0, 1] = 1
    code = LinearCode(n=52, k=2, generator=gen)
    assert mc_failure_prob(code, 0.0, trials=2000, seed=3) == 0.0
    wide = LinearCode(n=63, k=1, generator=np.ones((63, 1), dtype=np.uint8))
    with pytest.raises(ResourceLimitError):
        mc_failure_prob(wide, 0.0, trials=10, seed=0)


def test_decode_block_bounded_in_cells():
    # a [16,14] code decodes 2048 words against 2^14 codewords; a block of
    # 1024 rows held 2^24 int64 distances
    code = random_code(16, 14, seed=3)
    code.codeword_ints
    tracemalloc.start()
    try:
        mc_failure_prob(code, CHANNEL_P, trials=2048, seed=1)
        exact_failure_prob(code, CHANNEL_P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_mc_chunk_bounded_in_cells():
    # at k = 2 one chunk took up to 2^20 trials, so these 2^18 drew
    # 2^18 x 62 float64 cells (124 MiB) at once; a chunk of at most 2^22
    # cells draws 32 MiB
    code = random_code(62, 2, seed=5)
    code.codeword_ints
    tracemalloc.start()
    try:
        mc_failure_prob(code, CHANNEL_P, trials=2**18, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_codeword_table_refused_before_allocating():
    code = LinearCode(n=22, k=22, generator=np.eye(22, dtype=np.uint8))
    tracemalloc.start()
    try:
        for read in (lambda: code.codewords, lambda: code.codeword_ints,
                     lambda: code.decode_table,
                     lambda: ml_decode(code, np.zeros(22, dtype=np.uint8))):
            with pytest.raises(ResourceLimitError, match="cells"):
                read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_popcount_counts_all_64_bits():
    rng = np.random.default_rng(12)
    words = np.concatenate([rng.integers(-2**63, 2**63 - 1, size=2000, dtype=np.int64),
                            np.array([-1, -2**63, 2**63 - 1, 0], dtype=np.int64)])
    got = _popcount(words)
    assert got.dtype == np.uint8
    assert got.tolist() == [bin(v % 2**64).count("1") for v in words.tolist()]
    assert got[-4:].tolist() == [64, 1, 63, 0]


def test_scan_ignores_bits_above_n_sign_bit_included():
    # few words on a fresh code take the codeword scan, where each word's
    # bits above n add the same count to every distance
    rng = np.random.default_rng(13)
    words = rng.integers(0, 2**18, size=200, dtype=np.int64)
    want = ml_decode_packed(random_code(18, 10, seed=5), words)
    for high in (np.int64(-2**63), np.int64(-1) << 18, np.int64(1) << 40):
        code = random_code(18, 10, seed=5)
        assert (ml_decode_packed(code, words | high) == want).all()
        assert "decode_table" not in vars(code)
    assert (want == scan_decode(random_code(18, 10, seed=5), words)).all()


def test_code_validation():
    with pytest.raises(ValueError):
        random_code(4, 5, seed=0)
    rank_deficient = np.array([[1, 1], [1, 1], [0, 0]], dtype=np.uint8)
    with pytest.raises(Exception):
        LinearCode(n=3, k=2, generator=rank_deficient, seed=0)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: exact_failure_prob(repetition_code(21), 0.1), ResourceLimitError,
     "n=21 exceeds the enumeration budget of 20"),
    (lambda: LinearCode(n=3, k=1, generator=np.ones((3, 2))), ValueError,
     "generator shape (3, 2) != (3, 1)"),
    (lambda: LinearCode(n=2, k=3, generator=np.ones((2, 3))), ValueError,
     "need 1 <= k <= n, got k=3, n=2"),
    (lambda: encode(repetition_code(3), np.ones((1, 1))), ValueError,
     "expected a 1-d bit vector, got shape (1, 1)"),
])
def test_refusals_name_their_cause(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
