"""Protocol round trips, extractor guarantees, leakage and simulator checks."""

import copy
import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from oracles import toeplitz_matrix
from otmbench import protocol
from otmbench.collinfo import JointDistribution, conditional_collision_mi, collision_mi
from otmbench.errors import InvariantViolationError, ResourceLimitError
from otmbench.f2codes import (MAX_SAMPLED_BITS, bits_to_int, encode, int_to_bits, ml_decode,
                              random_code)
from otmbench.povmsearch import Povm, pair_info
from otmbench.protocol import (
    PER_PAIR_BOUNDS,
    Extractor,
    LeakageReport,
    LeakageSweep,
    ProtocolParams,
    leakage_experiment,
    make_extractor,
    mc_correctness,
    otm_prep,
    otm_read,
    otrm_prep,
    otrm_read,
    simulator_transcript,
)
from otmbench.qrac import (
    BasisMeasurement,
    QubitState,
    measure_prob,
    measurement_for,
    qrac_encode,
)
from otmbench.seeds import derive_seed

CHANNEL_P = math.sin(math.pi / 8) ** 2


def test_params_validation():
    p = ProtocolParams(n=15, lam=8, rate=0.2)
    assert p.k == 3
    assert p.msg_len == 1
    assert ProtocolParams(n=10, lam=16, k=2).msg_len == 2
    with pytest.raises(ValueError):
        ProtocolParams(n=10, lam=8)  # neither k nor rate
    with pytest.raises(ValueError):
        ProtocolParams(n=10, lam=8, k=2, rate=0.3)  # k and rate disagree
    with pytest.raises(ValueError):
        ProtocolParams(n=10, lam=7, k=2)  # lam not a byte multiple
    with pytest.raises(ValueError):
        ProtocolParams(n=10, lam=8, rate=0.17)  # k not an integer


@pytest.mark.parametrize("name", ["n", "lam", "k"])
@pytest.mark.parametrize("value", [2.0, True, "2"])
def test_params_sizes_must_be_integers(name, value):
    fields = {"n": 5, "lam": 8, "k": 2}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ProtocolParams(**{**fields, name: value})
    # numpy integers are integers, stored as Python ints
    params = ProtocolParams(**{**fields, name: np.int64(fields[name])})
    assert params == ProtocolParams(**fields) and type(getattr(params, name)) is int


def test_params_refuse_more_message_bits_than_qubits():
    assert ProtocolParams(n=4, lam=32, k=2).msg_len == 4
    with pytest.raises(ValueError, match="lam=40 gives 5 message bits, more than n=4"):
        ProtocolParams(n=4, lam=40, k=2)
    # no extractor compresses n = 2 codeword bits to 3 message bits
    with pytest.raises(ValueError, match="more than n=2"):
        ProtocolParams(n=2, lam=24, k=1)


def test_message_layer_refuses_long_messages_before_drawing_codes():
    """otm_prep and simulator_transcript see no params with msg_len > n:
    the params refuse first, so neither otrm_prep nor _code_pair runs."""
    m = np.zeros(4, dtype=np.uint8)
    with mock.patch.object(protocol, "otrm_prep", wraps=protocol.otrm_prep) as prep, \
            mock.patch.object(protocol, "_code_pair", wraps=protocol._code_pair) as pair:
        with pytest.raises(ValueError, match="more than n=3"):
            otm_prep(m, m, ProtocolParams(n=3, lam=32, k=2), seed=1)
        with pytest.raises(ValueError, match="more than n=3"):
            simulator_transcript(m, m, ProtocolParams(n=3, lam=32, k=2), seed=1)
        assert (prep.call_count, pair.call_count) == (0, 0)
        # the spies see the calls of a valid shape
        otm_prep(m, m, ProtocolParams(n=4, lam=32, k=2), seed=1)
        assert (prep.call_count, pair.call_count) == (1, 1)


def test_otrm_prep_structure_and_determinism():
    params = ProtocolParams(n=8, lam=8, k=3)
    inst = otrm_prep(params, seed=5)
    again = otrm_prep(params, seed=5)
    assert np.array_equal(inst.r0, again.r0)
    assert np.array_equal(inst.c1, again.c1)
    assert inst.angles.shape == (8,)
    # codewords really encode the drawn messages
    assert np.array_equal(inst.c0, (inst.code0.generator @ inst.r0) % 2)
    assert np.array_equal(inst.c1, (inst.code1.generator @ inst.r1) % 2)
    different = otrm_prep(params, seed=6)
    assert not (
        np.array_equal(different.r0, inst.r0)
        and np.array_equal(different.r1, inst.r1)
    )


def test_otrm_prep_qubits_encode_codeword_pairs():
    params = ProtocolParams(n=6, lam=8, k=2)
    inst = otrm_prep(params, seed=1)
    for i, theta in enumerate(inst.angles):
        want = qrac_encode(int(inst.c0[i]), int(inst.c1[i]))
        assert abs(theta - want.theta) <= 1e-12


def test_otrm_instance_derives_codewords_and_angles():
    inst = otrm_prep(ProtocolParams(n=6, lam=8, k=2), seed=1)
    # the codes and secrets are the only inputs; the rest follows from them
    other = np.array([1, 1], dtype=np.uint8) ^ inst.r0
    moved = dataclasses.replace(inst, r0=other)
    assert moved.c0.tolist() == encode(inst.code0, other).tolist()
    assert moved.c1 is not inst.c1 and moved.c1.tolist() == inst.c1.tolist()
    with pytest.raises(TypeError):
        protocol.OtrmInstance(inst.code0, inst.code1, inst.r0, inst.r1, inst.c0)
    with pytest.raises(ValueError, match="expected length 2, got 1"):
        dataclasses.replace(inst, r0=inst.r0[:1])
    wide = random_code(7, 2, seed=0)
    with pytest.raises(InvariantViolationError, match="code lengths 6 and 7 disagree"):
        dataclasses.replace(inst, code1=wide)


def test_reads_are_scored_against_the_encoded_bits():
    # the secrets are encoded mod 2, so [2, 1] and [1, 3] are kept as the
    # bits [0, 1] and [1, 1] that the reads decode to
    code0, code1 = random_code(9, 2, seed=0), random_code(9, 2, seed=1)
    inst = protocol.OtrmInstance(code0, code1, [2, 1], [1, 3])
    assert inst.r0.dtype == np.uint8 and inst.r1.dtype == np.uint8
    assert (inst.r0.tolist(), inst.r1.tolist()) == ([0, 1], [1, 1])
    assert inst.c0.tolist() == encode(code0, [0, 1]).tolist()
    for alpha, want in ((0, [0, 1]), (1, [1, 1])):
        reads = [otrm_read(inst, alpha, seed) for seed in range(200)]
        assert all(r.success == (r.message.tolist() == want) for r in reads)
        assert sum(r.success for r in reads) >= 150


def find_zero_free_codes(n, k):
    # a zero generator row pins that qubit's bit to 0; skip such draws
    seed = 0
    while True:
        c0 = random_code(n, k, seed)
        c1 = random_code(n, k, seed + 1)
        if (c0.generator.sum(axis=1) > 0).all() and (
            c1.generator.sum(axis=1) > 0
        ).all():
            return c0, c1
        seed += 2


def test_codeword_bit_pairs_uniform_over_messages():
    """Each qubit sees every (c0[i], c1[i]) combination equally often."""
    c0, c1 = find_zero_free_codes(6, 3)
    counts = np.zeros((6, 2, 2), dtype=int)
    for u, v in itertools.product(range(8), range(8)):
        w0, w1 = c0.codewords[u], c1.codewords[v]
        for i in range(6):
            counts[i, w0[i], w1[i]] += 1
    assert (counts == 16).all()


def test_otrm_read_decodes_and_reports():
    params = ProtocolParams(n=9, lam=8, k=2)
    inst = otrm_prep(params, seed=3)
    res = otrm_read(inst, alpha=1, seed=11)
    assert res.alpha == 1
    assert res.word.shape == (9,)
    assert res.success == bool(np.array_equal(res.message, inst.r1))
    assert np.array_equal(res.codeword, (inst.code1.generator @ res.message) % 2)
    with pytest.raises(ValueError):
        otrm_read(inst, alpha=2, seed=0)


def test_non_integer_alpha_refused_before_drawing():
    params = ProtocolParams(n=9, lam=16, k=2)
    pkg = otm_prep(np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8),
                   params, seed=5)
    codes = (pkg.instance.code0, pkg.instance.code1)
    rng = np.random.default_rng(21)
    state = rng.bit_generator.state
    for alpha in (1.0, 0.0, "1", None, True, False, 2, np.int64(-1)):
        with pytest.raises(ValueError, match="alpha"):
            otm_read(pkg, alpha, rng)
        with pytest.raises(ValueError, match="alpha"):
            otrm_read(pkg.instance, alpha, rng)
        with pytest.raises(ValueError, match="alpha"):
            mc_correctness(params, alpha, 10, seed=0, codes=codes)
        with pytest.raises(ValueError, match="alpha"):
            measurement_for(alpha)
    assert rng.bit_generator.state == state
    # numpy integers are integers: the same read as the Python int
    for alpha in (0, 1):
        a = otm_read(pkg, np.int64(alpha), np.random.default_rng(3))
        b = otm_read(pkg, alpha, np.random.default_rng(3))
        assert type(a.alpha) is int and a.alpha == alpha
        assert np.array_equal(a.inner.word, b.inner.word) and np.array_equal(a.message, b.message)
        assert measurement_for(np.uint8(alpha)) == measurement_for(alpha)


def test_reads_hand_out_fresh_arrays():
    params = ProtocolParams(n=9, lam=8, k=2)
    inst = otrm_prep(params, seed=3)
    code = inst.code1
    first = otrm_read(inst, 1, seed=11)
    codewords = code.codewords.copy()
    message, codeword = first.message.copy(), first.codeword.copy()
    first.message[:] ^= 1
    first.codeword[:] ^= 1
    decoded = ml_decode(code, first.word)
    decoded ^= 1
    assert np.array_equal(code.codewords, codewords)
    again = otrm_read(inst, 1, seed=11)
    assert np.array_equal(again.message, message) and np.array_equal(again.codeword, codeword)
    assert np.array_equal(ml_decode(code, first.word), message)


def test_otrm_read_word_matches_per_qubit_sampling():
    params = ProtocolParams(n=12, lam=8, k=3)
    inst = otrm_prep(params, seed=8)
    for alpha in (0, 1):
        meas = measurement_for(alpha)
        for seed in range(20):
            # one scalar draw per qubit, outcome 1 when it reaches P(outcome 0)
            rng = np.random.default_rng(seed)
            want = [int(rng.random() >= measure_prob(QubitState(t), meas)[0])
                    for t in inst.angles.tolist()]
            assert otrm_read(inst, alpha, seed).word.tolist() == want


def test_otrm_read_failure_rate_tracks_exact_benchmark():
    params = ProtocolParams(n=7, lam=8, k=2)
    codes = (random_code(7, 2, 100), random_code(7, 2, 101))
    for alpha in (0, 1):
        out = mc_correctness(params, alpha=alpha, trials=2000, seed=42, codes=codes)
        assert out == mc_correctness(params, alpha=alpha, trials=2000, seed=42, codes=codes)
        sigma = math.sqrt(out["exact_failure"] * (1 - out["exact_failure"]) / 2000)
        assert abs(out["empirical_failure"] - out["exact_failure"]) <= 4 * sigma
    with pytest.raises(ValueError):
        mc_correctness(ProtocolParams(n=8, lam=8, k=2), 0, 10, seed=0, codes=codes)


def test_reads_bytes_per_seed():
    # the bytes each seed gave when reads decoded by the block scan alone and
    # instances held one QubitState per qubit; both paths must reproduce them
    codes = (random_code(15, 3, 900), random_code(15, 3, 901))
    params = ProtocolParams(n=15, lam=8, k=3)
    wide = ProtocolParams(n=18, lam=8, k=10)                  # decoded by the table
    assert [mc_correctness(params, a, 2000, 11, codes=codes)["failures"] for a in (0, 1)] == [106, 157]
    assert [mc_correctness(wide, a, 3000, 5)["failures"] for a in (0, 1)] == [1715, 1625]
    pkg = otm_prep(np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8),
                   ProtocolParams(n=15, lam=16, k=3), seed=123)
    res = otm_read(pkg, 1, seed=9)
    assert res.message.tolist() == [0, 1] and res.inner.message.tolist() == [1, 0, 1]
    assert res.inner.word.tolist() == [1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 0, 1]


def _round_trip_digest(params, codes) -> str:
    """sha256 over the dtype, shape and bytes of every array a round trip
    hands out (the instance's secrets and angles too) and its success
    flags, for seeds 0..299 and both alpha."""
    digest = hashlib.sha256()
    msg = params.msg_len
    for seed in range(300):
        m0 = np.array([(seed >> i) & 1 for i in range(msg)], dtype=np.uint8)
        m1 = np.array([(seed >> (msg + i)) & 1 for i in range(msg)], dtype=np.uint8)
        pkg = otm_prep(m0, m1, params, seed=seed, codes=codes)
        inst = pkg.instance
        arrays = [pkg.ct0, pkg.ct1, pkg.ext0.bits, pkg.ext1.bits,
                  inst.r0, inst.r1, inst.c0, inst.c1, inst.angles]
        flags = []
        for alpha in (0, 1):
            res = otm_read(pkg, alpha, seed=seed + 1000)
            arrays += [res.inner.word, res.inner.message, res.inner.codeword, res.message]
            flags += [res.success, res.inner.success]
        for a in arrays:
            digest.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        digest.update(repr(flags).encode())
    return digest.hexdigest()


def test_round_trip_bytes_pinned():
    # recorded when prep built every extractor matrix and reads re-encoded
    # the decoded message; every faster path must reproduce these bytes
    fixed = (random_code(15, 3, 900), random_code(15, 3, 901))
    assert _round_trip_digest(ProtocolParams(n=15, lam=8, k=3), fixed) == (
        "7f12c797cd164806d17693e7e002ea81f4f342a9d5f7e18709d68be0f5d02435")
    assert _round_trip_digest(ProtocolParams(n=12, lam=16, k=4), None) == (
        "ad62446ed83e9c8bc0796b2b85a2ac4f653aa8e628771e51362a6bcf9e64f04e")


def test_round_trip_bytes_pinned_at_draw_edges():
    # recorded when r0, r1 and the extractor seeds came from Generator.integers
    # calls: at k = 9 r0 spans three uint32 words and r1 starts on the fourth;
    # at lam = 0 the messages and extractor seeds are empty
    assert _round_trip_digest(ProtocolParams(n=20, lam=24, k=9), None) == (
        "a0dc3c5aa2ab4bd6b5763556a966da38d19c8ee952c09f4cd003115703e612a9")
    assert _round_trip_digest(ProtocolParams(n=12, lam=0, k=4), None) == (
        "0310fbc5e36b191d668dd09b3af9024aa66164a05ac5c761f888205b7d9c7954")


def test_mc_correctness_refused_past_bit_budget():
    params = ProtocolParams(n=15, lam=8, k=3)
    with pytest.raises(ResourceLimitError, match="sampling budget"):
        mc_correctness(params, 0, MAX_SAMPLED_BITS // 15 + 1, seed=0)
    with pytest.raises(ValueError, match="positive"):
        mc_correctness(params, 0, 0, seed=0)


def test_mc_correctness_trials_must_be_an_integer_before_drawing_codes():
    params = ProtocolParams(n=5, lam=8, k=2)
    with mock.patch.object(protocol, "_code_pair", wraps=protocol._code_pair) as draw:
        for trials in (10.0, True):
            with pytest.raises(ValueError, match="trials must be an integer"):
                mc_correctness(params, 0, trials, seed=1)
        assert draw.call_count == 0
    assert mc_correctness(params, 0, np.int64(10), seed=1) == mc_correctness(params, 0, 10, seed=1)


# ---------------------------------------------------------------------------
# extractor


def test_extractor_matrix_is_toeplitz():
    ext = make_extractor(6, 3, seed=2)
    t = toeplitz_matrix(ext)
    assert t.shape == (3, 6)
    for i in range(1, 3):
        for j in range(1, 6):
            assert t[i, j] == t[i - 1, j - 1], "diagonals must be constant"


def test_extractor_identity_seed():
    bits = np.zeros(9, dtype=np.uint8)
    bits[4] = 1  # the diagonal of a 5x5 Toeplitz map
    ext = Extractor(bits=bits, input_len=5, output_len=5)
    x = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    assert np.array_equal(ext.apply(x), x)


def test_extractor_apply_is_linear():
    ext = make_extractor(8, 4, seed=9)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.integers(0, 2, 8, dtype=np.uint8)
        y = rng.integers(0, 2, 8, dtype=np.uint8)
        assert np.array_equal(ext.apply(x ^ y), ext.apply(x) ^ ext.apply(y))


def test_extractor_apply_matches_matrix():
    rng = np.random.default_rng(6)
    shapes = [(1, 0), (4, 0), (1, 1), (7, 7), (15, 1), (300, 3), (300, 300)]
    shapes += [(int(n), int(rng.integers(0, n + 1))) for n in rng.integers(1, 40, size=12)]
    for n, out in shapes:
        ext = make_extractor(n, out, seed=int(rng.integers(2**32)))
        oracle = toeplitz_matrix(ext).astype(np.int64)
        xs = [rng.integers(0, 2, n, dtype=np.uint8) for _ in range(3)]
        xs.append(np.ones(n, dtype=np.uint8))
        for x in xs:
            got = ext.apply(x)
            assert got.dtype == np.uint8 and got.tolist() == ((oracle @ x) % 2).tolist(), (n, out)
        # inputs are read mod 2
        wide = rng.integers(0, 256, n).astype(np.uint8)
        assert ext.apply(wide).tolist() == ((oracle @ (wide % 2)) % 2).tolist(), (n, out)
    # an all-ones seed and input at n = 300: each uint8 sum wraps past 255
    ones = Extractor(bits=np.ones(302, dtype=np.uint8), input_len=300, output_len=3)
    assert ones.apply(np.ones(300, dtype=np.uint8)).tolist() == [0, 0, 0]
    assert make_extractor(0, 0, seed=1).apply([]).shape == (0,)


def test_extractor_zero_output_length():
    ext = make_extractor(4, 0, seed=0)
    assert ext.apply(np.array([1, 1, 0, 1], dtype=np.uint8)).shape == (0,)


def test_make_extractor_seed_bits_are_generator_draws():
    # an int or numpy integer seed gives the bits of a fresh generator's draw
    for seed in (0, 7, np.uint64(2**64 - 1), 2**70):
        want = np.random.default_rng(seed).integers(0, 2, size=17, dtype=np.uint8)
        assert make_extractor(15, 3, seed).bits.tolist() == want.tolist()


@pytest.fixture
def no_draws(monkeypatch):
    """Fail any draw of extractor seed bits."""
    def draw(*args):
        raise AssertionError("seed bits drawn before the arguments were checked")
    monkeypatch.setattr(protocol, "_coin_bits", draw)


def test_make_extractor_refuses_long_outputs_before_drawing(no_draws):
    # a huge lam would otherwise draw n + lam/8 - 1 seed bits first
    for output_len in (7, -1):
        with pytest.raises(ValueError, match="output_len <= input_len"):
            make_extractor(6, output_len, 4)


def test_make_extractor_refuses_non_integer_seeds_before_drawing(no_draws):
    # an array would otherwise seed PCG64 silently
    for seed in (np.zeros(5, dtype=np.uint8), np.random.default_rng(4), True, 1.0, None):
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_extractor(4, 2, seed)


def test_extractor_sizes_must_be_integers(no_draws):
    # refused by one rule in both constructors, before any seed bit is drawn
    for sizes in ((4.0, 1), (4, 1.0), (True, 1), (4, True), ("4", 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            make_extractor(*sizes, 4)
        with pytest.raises(ValueError, match="must be an integer"):
            Extractor(np.zeros(4, dtype=np.uint8), *sizes)
    ext = Extractor(np.zeros(4, dtype=np.uint8), np.int64(4), np.int64(1))
    assert (type(ext.input_len), type(ext.output_len)) == (int, int)
    assert ext.apply([1, 0, 1, 1]).tolist() == [0]


def test_two_universality_exact():
    """Every distinct input pair collides on exactly 2^-out of the seeds."""
    input_len, output_len = 4, 2
    seed_bits = input_len + output_len - 1
    inputs = [np.array(v, dtype=np.uint8) for v in itertools.product((0, 1), repeat=4)]
    collisions = np.zeros((16, 16), dtype=int)
    for s in range(2**seed_bits):
        bits = np.array([(s >> i) & 1 for i in range(seed_bits)], dtype=np.uint8)
        ext = Extractor(bits=tuple(bits), input_len=input_len, output_len=output_len)
        outs = [ext.apply(x) for x in inputs]
        for i in range(16):
            for j in range(i + 1, 16):
                collisions[i, j] += np.array_equal(outs[i], outs[j])
    want = 2**seed_bits // 4
    off_diag = collisions[np.triu_indices(16, k=1)]
    assert (off_diag == want).all()


def test_extraction_distance_for_flat_source():
    """Uniform source on 2^6 of 2^7 strings, 2 output bits: SD <= 1/8."""
    input_len, output_len = 7, 2
    seed_bits = input_len + output_len - 1
    support = np.array(
        [[(v >> i) & 1 for i in range(input_len)] for v in range(64)], dtype=np.uint8
    )
    total = 0.0
    n_seeds = 2**seed_bits
    rng = np.random.default_rng(0)
    sample = rng.choice(n_seeds, size=64, replace=False)  # spot-check the average
    for s in sample:
        bits = np.array([(s >> i) & 1 for i in range(seed_bits)], dtype=np.uint8)
        ext = Extractor(bits=tuple(bits), input_len=input_len, output_len=output_len)
        hist = np.zeros(4)
        for x in support:
            o = ext.apply(x)
            hist[2 * o[0] + o[1]] += 1
        total += 0.5 * np.abs(hist / 64 - 0.25).sum()
    # leftover-hash bound (1/2) sqrt(2^(out - Hmin)) = 1/8; the sampled
    # average sits below it with margin
    assert total / len(sample) <= 0.125 + 0.02


# ---------------------------------------------------------------------------
# full OTM wrap


def test_otm_round_trip_exhaustive_small():
    params = ProtocolParams(n=5, lam=8, k=2)
    for m0_bit, m1_bit, alpha in itertools.product((0, 1), (0, 1), (0, 1)):
        m0 = np.array([m0_bit], dtype=np.uint8)
        m1 = np.array([m1_bit], dtype=np.uint8)
        for seed in range(5):
            pkg = otm_prep(m0, m1, params, seed=seed)
            res = otm_read(pkg, alpha, seed=seed + 1000)
            assert res.alpha == alpha
            if res.inner.success:
                want = m0 if alpha == 0 else m1
                assert np.array_equal(res.message, want)


def test_otm_ciphertext_masks_message():
    params = ProtocolParams(n=5, lam=16, k=2)
    m0 = np.array([1, 0], dtype=np.uint8)
    m1 = np.array([0, 1], dtype=np.uint8)
    pkg = otm_prep(m0, m1, params, seed=3)
    assert np.array_equal(pkg.ct0, m0 ^ pkg.ext0.apply(pkg.instance.c0))
    assert np.array_equal(pkg.ct1, m1 ^ pkg.ext1.apply(pkg.instance.c1))


def test_otm_tampered_ciphertext_flips_output_bit():
    params = ProtocolParams(n=5, lam=16, k=2)
    m0 = np.array([1, 1], dtype=np.uint8)
    m1 = np.array([0, 0], dtype=np.uint8)
    pkg = otm_prep(m0, m1, params, seed=4)
    flipped = dataclasses.replace(pkg, ct0=pkg.ct0 ^ np.array([1, 0], dtype=np.uint8))
    a = otm_read(pkg, 0, seed=9)
    b = otm_read(flipped, 0, seed=9)
    assert np.array_equal(a.message ^ b.message, np.array([1, 0], dtype=np.uint8))


# ---------------------------------------------------------------------------
# leakage experiments


def test_leakage_single_basis_anchors():
    rep = leakage_experiment(1, strategy=[0.0])
    assert rep.ic_b0 == pytest.approx(math.log2(1.5), abs=1e-9)
    assert abs(rep.ic_b1) <= 1e-9
    assert rep.lesser == 1, "the conjugate-basis bit is the lesser one"
    rep = leakage_experiment(1, strategy=[math.pi / 8])
    assert rep.total == pytest.approx(2 * math.log2(1.25), abs=1e-9)
    rep = leakage_experiment(1, strategy=[math.pi / 4])
    assert rep.ic_b1 == pytest.approx(math.log2(1.5), abs=1e-9)
    assert rep.lesser == 0


def test_leakage_two_qubit_product_strategy():
    rep = leakage_experiment(2, strategy=[0.0, math.pi / 4])
    # one basis per bit: both bits leak the single-basis amount
    assert rep.ic_b0 == pytest.approx(math.log2(1.5), abs=1e-9)
    assert rep.ic_b1 == pytest.approx(math.log2(1.5), abs=1e-9)
    assert rep.all_ok
    for q, entry in rep.bounds.items():
        assert entry["limit"] == pytest.approx(2 * PER_PAIR_BOUNDS[q], abs=1e-12)


def test_leakage_accepts_povm_entries():
    third = np.eye(2) / 3
    v1 = np.array([math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)])
    v2 = np.array([math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3)])
    trine = Povm((
        2 / 3 * np.outer([1.0, 0.0], [1.0, 0.0]),
        2 / 3 * np.outer(v1, v1),
        2 / 3 * np.outer(v2, v2),
    ))
    rep = leakage_experiment(1, strategy=[trine])
    assert rep.all_ok
    assert rep.total >= 0.0
    assert third is not None


def test_leakage_small_sweep_all_ok():
    sweep = leakage_experiment(2, exhaustive=True, angles=[0.0, math.pi / 8, math.pi / 4])
    assert isinstance(sweep, LeakageSweep)
    assert len(sweep.reports) == 9
    assert sweep.all_ok
    for q, worst in sweep.worst.items():
        assert worst <= 2 * PER_PAIR_BOUNDS[q] + 1e-9


_TRINE = Povm(tuple(
    2 / 3 * np.outer(v, v)
    for v in ([math.cos(a), math.sin(a)] for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3))
))
_ZERO_OUTCOME = Povm((np.eye(2), np.zeros((2, 2))))   # outcome 1 never occurs

_FIGURES = ("ic_b0", "ic_b1", "total", "cond_b0", "cond_b1")


def _entry_table(entry) -> np.ndarray:
    """t[x, y, o] = P(outcome o | bits (x, y)) for one strategy entry."""
    if isinstance(entry, Povm):
        return np.array([[[np.trace(el @ qrac_encode(x, y).density_matrix())
                           for el in entry.elements] for y in (0, 1)] for x in (0, 1)])
    meas = entry if isinstance(entry, BasisMeasurement) else BasisMeasurement(entry)
    return np.array([[measure_prob(qrac_encode(x, y), meas) for y in (0, 1)] for x in (0, 1)])


def _dense_figures(strategy) -> tuple:
    """Oracle: the five figures from the dense joint of the (b0, b1, outcome)
    strings of all pairs, with no use of additivity."""
    p = np.ones((1, 1, 1))
    for t in map(_entry_table, strategy):
        p = np.einsum("ABC,xyo->AxByCo", p, 0.25 * t).reshape(
            p.shape[0] * 2, p.shape[1] * 2, p.shape[2] * t.shape[2]
        )
    d = JointDistribution(("b0", "b1", "out"), p)
    ic0 = collision_mi(d, "b0", "out")
    ic1 = collision_mi(d, "b1", "out")
    return (ic0, ic1, ic0 + ic1, conditional_collision_mi(d, "b0", "out", "b1"),
            conditional_collision_mi(d, "b1", "out", "b0"))


def _random_strategy(rng, m) -> list:
    kinds = rng.integers(0, 3, size=m)
    return [float(rng.uniform(0, math.pi)) if kind == 0 else
            BasisMeasurement(float(rng.uniform(0, math.pi))) if kind == 1 else _TRINE
            for kind in kinds]


def test_leakage_matches_dense_product_joint():
    rng = np.random.default_rng(2024)
    strategies = [_random_strategy(rng, m) for m in (1, 2, 3, 4) for _ in range(6)]
    strategies += [_random_strategy(rng, 6), [_TRINE] * 6]   # dense joint: 2^12 * 3^6 cells
    strategies += [[_ZERO_OUTCOME], [0.3, _ZERO_OUTCOME, _TRINE],
                   [_TRINE, BasisMeasurement(1.1), _ZERO_OUTCOME, math.pi / 8]]
    for strategy in strategies:
        rep = leakage_experiment(len(strategy), strategy=strategy)
        got = tuple(getattr(rep, f) for f in _FIGURES)
        want = _dense_figures(strategy)
        # written so that a nan on either side fails
        assert all(abs(g - w) <= 1e-12 for g, w in zip(got, want)), (strategy, got, want)


def _figure_rows(reports) -> set:
    return {tuple(getattr(r, f) for f in _FIGURES) + (r.lesser,) for r in reports}


def test_leakage_ignores_entry_order():
    sweep = leakage_experiment(3, exhaustive=True)
    by_multiset = {}
    for r in sweep.reports:
        by_multiset.setdefault(tuple(sorted(r.strategy)), []).append(r)
    assert all(len(_figure_rows(reps)) == 1 for reps in by_multiset.values())
    for strategy in ([0.0, math.pi / 4, 3 * math.pi / 8], [0.1, BasisMeasurement(0.7), _TRINE],
                     [0.0, math.pi / 16, math.pi / 4, 3 * math.pi / 8],
                     [_TRINE, 0.3, 0.3, BasisMeasurement(1.1)]):
        rows = _figure_rows(leakage_experiment(len(strategy), strategy=list(perm))
                            for perm in itertools.permutations(strategy))
        assert len(rows) == 1, strategy
    # {0, pi/4, 3pi/8} leaks equally from both strings: a tie, so lesser is 0,
    # and the single-strategy path gives the sweep's bytes
    tie = (0.0, math.pi / 4, 3 * math.pi / 8)
    rows = _figure_rows(by_multiset[tie])
    assert rows == _figure_rows([leakage_experiment(3, strategy=list(tie))])
    assert rows.pop()[-1] == 0


def test_leakage_argument_errors():
    with pytest.raises(ResourceLimitError):
        leakage_experiment(9, exhaustive=True)
    # one strategy costs O(m): no cap on m
    assert leakage_experiment(6, strategy=[0.0] * 6).ic_b0 == pytest.approx(
        6 * math.log2(1.5), abs=1e-12)
    for m in (0, -2):
        with pytest.raises(ValueError) as err:
            leakage_experiment(m, exhaustive=True)
        assert not isinstance(err.value, ResourceLimitError)
    with pytest.raises(ValueError):
        leakage_experiment(2, strategy=[0.0])
    with pytest.raises(ValueError):
        leakage_experiment(1, strategy=[0.0], exhaustive=True)
    with pytest.raises(ResourceLimitError):
        leakage_experiment(5, exhaustive=True, angles=[j * 0.1 for j in range(9)])


def test_leakage_pair_count_must_be_an_integer():
    for m, strategy in ((2.0, [0.0, 0.0]), (True, [0.0])):
        with pytest.raises(ValueError, match="m must be an integer"):
            leakage_experiment(m, strategy=strategy)
    assert leakage_experiment(np.int64(1), strategy=[0.0]) == leakage_experiment(1, strategy=[0.0])


def test_leakage_sweep_guard_is_checked_before_listing():
    # a one-angle grid has one row at any m; the index cells are still counted
    sweep = leakage_experiment(1000, exhaustive=True, angles=[0.3])
    assert len(sweep.reports) == 1 and sweep.reports[0].strategy == (0.3,) * 1000
    for m in (10**6, 10**18):
        with pytest.raises(ResourceLimitError):
            leakage_experiment(m, exhaustive=True, angles=[0.3])
        with pytest.raises(ResourceLimitError):
            leakage_experiment(m, exhaustive=True)
    assert len(leakage_experiment(14, exhaustive=True, angles=[0.0, 0.5]).reports) == 2**14
    with pytest.raises(ResourceLimitError):
        leakage_experiment(15, exhaustive=True, angles=[0.0, 0.5])
    with pytest.raises(ValueError, match="angles"):
        leakage_experiment(2, exhaustive=True, angles=[])


def _eager_reports(m: int, labels: list, figs: np.ndarray) -> list:
    """Oracle: the reports as the eager sweep built them, one dict per
    strategy with its bounds dict built from the figure columns."""
    ic0, ic1, c0, c1 = np.sort(figs, axis=1).sum(axis=1).T
    values = {"greater": np.maximum(ic0, ic1), "total": ic0 + ic1,
              "conditional": np.maximum(c0, c1)}
    limits = {q: m * PER_PAIR_BOUNDS[q] for q in PER_PAIR_BOUNDS}
    ok = {q: values[q] <= limits[q] + 1e-9 for q in PER_PAIR_BOUNDS}
    lesser = ic0 - ic1 > 1e-12
    return [
        dict(m=m, strategy=label, ic_b0=float(ic0[s]), ic_b1=float(ic1[s]),
             total=float(values["total"][s]), cond_b0=float(c0[s]), cond_b1=float(c1[s]),
             lesser=int(lesser[s]),
             bounds={q: {"value": float(values[q][s]), "limit": limits[q],
                         "ok": bool(ok[q][s])} for q in PER_PAIR_BOUNDS})
        for s, label in enumerate(labels)
    ]


def _eager_figures(entries: list) -> tuple:
    """Per-entry pair figures and strategy labels of a list of entries."""
    figs = np.array([pair_info(t) for t in protocol._strategy_tables(entries)])
    names = [e if isinstance(e, Povm) else
             (e.theta if isinstance(e, BasisMeasurement) else float(e)) for e in entries]
    return figs, names


def _eager_sweep(m: int, entries: list) -> tuple:
    """Oracle: (reports, worst, all_ok) of the eager sweep, with one Python
    loop over every report for worst and all_ok."""
    figs, names = _eager_figures(entries)
    idx = np.array(list(itertools.product(range(len(entries)), repeat=m)))
    reports = _eager_reports(m, [tuple(names[j] for j in row) for row in idx.tolist()],
                             figs[idx])
    worst = {q: max(r["bounds"][q]["value"] for r in reports) for q in PER_PAIR_BOUNDS}
    all_ok = all(v["ok"] for r in reports for v in r["bounds"].values())
    return reports, worst, all_ok


def _report_fields(rep) -> dict:
    return dict(m=rep.m, strategy=rep.strategy, **{f: getattr(rep, f) for f in _FIGURES},
                lesser=rep.lesser, bounds=rep.bounds)


def test_leakage_sweep_columns_match_eager_reports():
    grids = [None, [0.0, math.pi / 8, math.pi / 4],
             np.random.default_rng(11).uniform(0, math.pi, size=7).tolist(),
             [0.2, BasisMeasurement(0.9), _TRINE, _ZERO_OUTCOME]]
    for angles, m in itertools.product(grids, (1, 2, 3, 4)):
        entries = [j * math.pi / 16 for j in range(9)] if angles is None else angles
        want, worst, all_ok = _eager_sweep(m, entries)
        sweep = leakage_experiment(m, exhaustive=True, angles=angles)
        got = [_report_fields(r) for r in sweep.reports]
        assert [r.all_ok for r in sweep.reports] == [
            all(v["ok"] for v in r["bounds"].values()) for r in want]
        assert got == want, (angles, m)
        assert (sweep.worst, sweep.all_ok) == (worst, all_ok), (angles, m)
    # one strategy goes through the same columns
    for strategy in ([0.3, _TRINE, BasisMeasurement(1.1)], [0.0] * 6):
        figs, names = _eager_figures(strategy)
        want = _eager_reports(len(strategy), [tuple(names)], figs[None, :])
        assert _report_fields(leakage_experiment(len(strategy), strategy=strategy)) == want[0]


def test_leakage_computes_each_distinct_entry_once(monkeypatch):
    calls = []

    def counted(table):
        calls.append(1)
        return pair_info(table)

    monkeypatch.setattr(protocol, "pair_info", counted)
    rep = leakage_experiment(1000, strategy=[0.0] * 1000)
    assert len(calls) == 1
    figs, _ = _eager_figures([0.0])
    want = _eager_reports(1000, [(0.0,) * 1000], np.repeat(figs, 1000, axis=0)[None, :])
    assert _report_fields(rep) == want[0]
    calls.clear()
    leakage_experiment(2, exhaustive=True)
    assert len(calls) == 9
    # repeated angles, equal-angle BasisMeasurements and one Povm object
    # used twice: six distinct entries, reported as the per-entry figures
    strategy = [0.3, _TRINE, BasisMeasurement(0.3), 0.0, _TRINE, math.pi / 4, 0.3,
                BasisMeasurement(1.1), 0.0, _ZERO_OUTCOME]
    calls.clear()
    rep = leakage_experiment(len(strategy), strategy=strategy)
    assert len(calls) == 6
    figs, names = _eager_figures(strategy)
    want = _eager_reports(len(strategy), [tuple(names)], figs[None, :])
    assert _report_fields(rep) == want[0]


def test_leakage_sweep_reports_and_bounds():
    sweep = leakage_experiment(3, exhaustive=True, angles=[0.0, 0.4, 0.8])
    assert type(sweep.reports) is tuple and len(sweep.reports) == 27
    assert sweep.reports[-1].strategy == (0.8, 0.8, 0.8)
    assert leakage_experiment(3, exhaustive=True, angles=[0.0, 0.4, 0.8]) == sweep
    reports = sweep.reports
    # bounds is derived from the figures, cached, and outside equality
    rep = reports[5]
    assert rep.bounds is rep.bounds
    assert "bounds" not in {f.name for f in dataclasses.fields(rep)}
    # a value is within its limit up to 1e-9
    edge = LeakageReport(1, (0.0,), 0.59 + 5e-10, 0.0, 0.59 + 5e-10, 0.59 + 2e-9, 0.0, 1)
    assert [v["ok"] for v in edge.bounds.values()] == [True, True, False]
    assert not edge.all_ok


def test_leakage_report_is_a_frozen_dataclass():
    args = (2, (0.0, 0.5), 0.25, 0.125, 0.375, 0.5, 0.0625, 1)
    names = ["m", "strategy", "ic_b0", "ic_b1", "total", "cond_b0", "cond_b1", "lesser"]
    rep = LeakageReport(*args)
    assert [f.name for f in dataclasses.fields(LeakageReport)] == names
    assert repr(rep) == ("LeakageReport(m=2, strategy=(0.0, 0.5), ic_b0=0.25, ic_b1=0.125, "
                         "total=0.375, cond_b0=0.5, cond_b1=0.0625, lesser=1)")
    by_name = LeakageReport(**dict(zip(names, args)))
    assert by_name == rep and hash(by_name) == hash(rep)
    assert rep != LeakageReport(*args[:-1], 0)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, 0)
    # bounds is cached on the instance, and neither it nor its cache takes
    # part in equality or hashing
    bounds = rep.bounds
    assert rep.bounds is bounds and bounds["total"]["value"] == 0.375
    assert rep == by_name and hash(rep) == hash(by_name)
    changed = dataclasses.replace(rep, lesser=0)
    assert changed == LeakageReport(*args[:-1], 0) and changed.bounds == bounds
    assert dataclasses.replace(rep) == rep
    dup = copy.copy(rep)
    assert dup == rep and hash(dup) == hash(rep) and dup is not rep
    assert dataclasses.astuple(dup) == args


def test_honest_receiver_leaves_other_string_bounded():
    """Full matched-basis readout stays within the per-pair leakage budget."""
    n, k = 6, 2
    c0 = random_code(n, k, 50)
    c1 = random_code(n, k, 51)
    meas = measurement_for(0)
    tables = []
    for i in range(n):
        t = np.empty((2, 2, 2))
        for x, y in itertools.product((0, 1), repeat=2):
            t[x, y] = measure_prob(qrac_encode(x, y), meas)
        tables.append(t)
    table = np.zeros((4, 4, 2**n))
    for u, v in itertools.product(range(4), range(4)):
        w0, w1 = c0.codewords[u], c1.codewords[v]
        probs = np.ones(1)
        for i in range(n):
            probs = np.multiply.outer(probs, tables[i][w0[i], w1[i]]).reshape(-1)
        table[u, v] = probs / 16.0
    d = JointDistribution(("c0", "c1", "out"), table)
    limit = n * PER_PAIR_BOUNDS["conditional"] + 1e-9
    assert conditional_collision_mi(d, ("c1",), ("out",), ("c0",)) <= limit
    assert collision_mi(d, ("c1",), ("out",)) <= n * PER_PAIR_BOUNDS["greater"] + 1e-9


# ---------------------------------------------------------------------------
# simulator


def test_simulator_empty_messages_no_distance():
    params = ProtocolParams(n=4, lam=0, k=2)
    rep = simulator_transcript(
        np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8), params
    )
    assert rep.exact_sd == 0.0


def test_simulator_measures_nothing_closed_form():
    """With a square code, real ct1 is uniform except on the all-zero seed.

    c1 is then uniform over all 2^n words, so a Toeplitz row extracts a
    perfectly uniform bit unless the row is zero (one seed in 2^n), where
    the real ciphertext is constant and contributes SD 1/2.
    """
    params = ProtocolParams(n=4, lam=8, k=4)
    rep = simulator_transcript(
        np.array([0], dtype=np.uint8), np.array([1], dtype=np.uint8), params, seed=5
    )
    assert rep.exact_sd == pytest.approx(0.5 * 2.0**-4, abs=1e-12)
    assert rep.exact_sd <= rep.lhl_bound + 1e-12


def test_simulator_all_matched_basis_adversary():
    params = ProtocolParams(n=6, lam=8, k=2)
    rep = simulator_transcript(
        np.array([1], dtype=np.uint8),
        np.array([0], dtype=np.uint8),
        params,
        adversary_strategy=[0.0] * 6,
        seed=0,
    )
    assert rep.exact_sd <= rep.lhl_bound + 1e-12
    assert rep.min_entropy_c1 >= 0.0


def test_simulator_within_lhl_over_adversary_table():
    # every basis-choice adversary in {0, pi/4}^6 and each uniform angle of
    # the 9-angle leakage grid: 64 + 9 strategies
    params = ProtocolParams(n=6, lam=8, k=2)
    table = [list(s) for s in itertools.product((0.0, math.pi / 4), repeat=6)]
    table += [[j * math.pi / 16] * 6 for j in range(9)]
    assert len(table) == 73
    for strategy in table:
        rep = simulator_transcript(np.array([1], dtype=np.uint8), np.array([0], dtype=np.uint8),
                                   params, adversary_strategy=strategy, seed=0)
        assert rep.exact_sd <= rep.lhl_bound + 1e-12, strategy


def test_simulator_figures_skip_the_dense_view():
    # the dense (w0, w1, out, ct0, ct1) view at n = 7, k = 3 holds 2^23
    # float64 cells (64 MiB); the 8 seed classes per side need 32 768
    params = ProtocolParams(n=7, lam=8, k=3)
    m0, m1 = np.array([1], dtype=np.uint8), np.array([0], dtype=np.uint8)
    tracemalloc.start()
    try:
        rep = simulator_transcript(m0, m1, params, adversary_strategy=[0.0] * 7, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert rep.exact_sd <= rep.lhl_bound + 1e-12


def test_simulator_distance_past_lhl_is_refused(monkeypatch):
    # a min-entropy of 60 bits puts the LHL bound near 2^-30, far below
    # the 2^-5 distance of the measure-nothing instance
    monkeypatch.setattr(protocol, "avg_conditional_min_entropy", lambda *a: 60.0)
    with pytest.raises(InvariantViolationError, match="leftover-hash"):
        simulator_transcript(np.array([0], dtype=np.uint8), np.array([1], dtype=np.uint8),
                             ProtocolParams(n=4, lam=8, k=4), seed=5)


def test_simulator_refuses_wide_seeds_before_allocating():
    params = ProtocolParams(n=62, lam=8, k=3)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="pad table"):
            simulator_transcript(np.array([1], dtype=np.uint8), np.array([0], dtype=np.uint8),
                                 params, adversary_strategy=[0.0] * 62)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulator_refuses_wide_pad_product_before_allocating():
    # 2^23 seeds of 12 message bits each, times 64 codewords, is the
    # Toeplitz product's size; it is refused before either side is built
    params = ProtocolParams(n=12, lam=96, k=6)
    assert params.msg_len == 12
    m = np.zeros(12, dtype=np.uint8)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="pad table"):
            simulator_transcript(m, m, params, adversary_strategy=[0.0] * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulator_distance_shrinks_with_shorter_messages():
    m2 = simulator_transcript(
        np.array([1, 0], dtype=np.uint8),
        np.array([0, 1], dtype=np.uint8),
        ProtocolParams(n=5, lam=16, k=2),
        seed=2,
    )
    m1 = simulator_transcript(
        np.array([1], dtype=np.uint8),
        np.array([0], dtype=np.uint8),
        ProtocolParams(n=5, lam=8, k=2),
        seed=2,
    )
    assert m1.exact_sd <= m2.exact_sd + 1e-12


def _trine():
    projs = []
    for j in range(3):
        v = np.array([math.cos(j * math.pi / 3), math.sin(j * math.pi / 3)])
        projs.append((2.0 / 3.0) * np.outer(v, v))
    return Povm(tuple(projs))


def _qubit_probs(entry, x, y):
    state = qrac_encode(x, y)
    if isinstance(entry, Povm):
        return [float(np.trace(m @ state.density_matrix())) for m in entry.elements]
    return list(measure_prob(state, BasisMeasurement(entry)))


def _brute_force_views(m0, m1, params, strategy, seed):
    """Real and simulated view tables and the c1 min-entropy, by explicit
    loops over extractor seeds, messages and outcome strings."""
    n, k, msg = params.n, params.k, params.msg_len
    code0 = random_code(n, k, derive_seed(seed, "sim-code0"))
    code1 = random_code(n, k, derive_seed(seed, "sim-code1"))
    seed_len = n + msg - 1 if msg else 0
    w_count, nc = 2 ** seed_len, 2 ** msg
    alphabets = [range(len(_qubit_probs(e, 0, 0))) for e in strategy]
    outs = list(itertools.product(*alphabets))
    cws0 = [encode(code0, int_to_bits(r, k)) for r in range(2 ** k)]
    cws1 = [encode(code1, int_to_bits(r, k)) for r in range(2 ** k)]
    exts = [Extractor(bits=int_to_bits(w, seed_len), input_len=n, output_len=msg)
            for w in range(w_count)]
    real = np.zeros((w_count, w_count, len(outs), nc, nc))
    side = {}
    for w0, w1, r0, r1 in itertools.product(range(w_count), range(w_count),
                                            range(2 ** k), range(2 ** k)):
        c0, c1 = cws0[r0], cws1[r1]
        ct0 = bits_to_int(m0 ^ exts[w0].apply(c0))
        ct1 = bits_to_int(m1 ^ exts[w1].apply(c1))
        for o, out in enumerate(outs):
            p = 0.25 ** k / w_count**2
            for i, oi in enumerate(out):
                p *= _qubit_probs(strategy[i], int(c0[i]), int(c1[i]))[oi]
            real[w0, w1, o, ct0, ct1] += p
            key = (w0, o, ct0)
            side.setdefault(key, {}).setdefault(r1, 0.0)
            side[key][r1] += p
    sim = np.repeat(real.sum(axis=-1, keepdims=True) / nc, nc, axis=-1)
    hmin = -math.log2(sum(max(v.values()) for v in side.values()))
    return real, sim, hmin


@pytest.mark.parametrize("n, lam, k, strategy, seed", [
    (3, 0, 2, [_trine(), 0.3], 1),
    (3, 8, 2, [0.0, _trine()], 4),
    (4, 8, 2, [math.pi / 8, 0.7], 9),
])
def test_simulator_matches_brute_force(n, lam, k, strategy, seed):
    params = ProtocolParams(n=n, lam=lam, k=k)
    rng = np.random.default_rng(seed)
    m0 = rng.integers(0, 2, size=params.msg_len, dtype=np.uint8)
    m1 = rng.integers(0, 2, size=params.msg_len, dtype=np.uint8)
    rep = simulator_transcript(m0, m1, params, adversary_strategy=strategy, seed=seed)
    real, sim, hmin = _brute_force_views(m0, m1, params, strategy, seed)
    assert rep.exact_sd == pytest.approx(0.5 * np.abs(real - sim).sum(), abs=1e-12)
    assert rep.min_entropy_c1 == pytest.approx(hmin, abs=1e-12)


def test_simulator_resource_limit():
    params = ProtocolParams(n=10, lam=32, k=2)
    with pytest.raises(ResourceLimitError):
        simulator_transcript(
            np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8), params
        )
    # lam = 0 keeps the view tiny, but the (r0, r1, out) table has 4^k * 2^n cells
    empty = np.zeros(0, dtype=np.uint8)
    with pytest.raises(ResourceLimitError):
        simulator_transcript(empty, empty, ProtocolParams(n=10, lam=0, k=10),
                             adversary_strategy=[0.0] * 10)


_PARAMS = ProtocolParams(n=3, lam=8, k=1)      # one message bit


@pytest.mark.parametrize("call, fragment", [
    (lambda: Extractor(np.zeros(3, dtype=np.uint8), 4, 1), "seed must hold 4 bits, got shape (3,)"),
    (lambda: Extractor(np.zeros(4, dtype=np.uint8), 4, 1).apply(np.zeros(3)),
     "input must hold 4 bits"),
    (lambda: otm_prep(np.zeros(2), np.zeros(1), _PARAMS), "messages must hold lam/8 = 1 bits"),
    (lambda: simulator_transcript(np.zeros(1), np.zeros(2), _PARAMS),
     "messages must hold lam/8 = 1 bits"),
    (lambda: simulator_transcript(np.zeros(1), np.zeros(1), _PARAMS, [0.0] * 4),
     "strategy lists more qubits than the instance holds"),
])
def test_refusals_name_their_cause(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
