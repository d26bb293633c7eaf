"""Binary linear codes over F2 at desk scale.

Everything here is exhaustive on purpose.  One sweep over the cosets of
the code visits each of the 2^n words once, as one coset representative
plus a codeword offset; each coset's least weight gives the exact failure
probability, and the words at it give a decode table holding the ML
decoding of every word.  Sampled decoding gathers from that table when it
is cheaper than scoring each word against all 2^k codewords, and scans the
codewords otherwise (and for n past the table budget).  That is the regime
where exact numbers are available to pin down the behaviour of the wrapping
protocol; guards refuse inputs past the enumeration budget instead of
silently degrading.

Bit vectors are numpy uint8 arrays.  A message ``m`` of length k maps to the
codeword ``G @ m mod 2`` with ``G`` an n-by-k full-column-rank generator.
Lexicographic order on bit vectors treats index 0 as the most significant
position, which matches numeric order on the packed integers used
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError, _check_int

__all__ = [
    "LinearCode",
    "random_code",
    "f2_rank",
    "encode",
    "ml_decode_packed",
    "exact_failure_prob",
    "mc_failure_prob",
    "bits_to_int",
    "int_to_bits",
]

# enumeration guards: 2^k x n codeword table cells / 2^n error patterns and
# decode-table cells
MAX_TABLE_CELLS = 1 << 26
MAX_BLOCK_BITS = 20
# words packed into int64 for sampled decoding, sign bit left clear
MAX_PACKED_BITS = 62
# sampled bits per Monte-Carlo call, trials x n
MAX_SAMPLED_BITS = 1 << 30
# distance cells per decode block, whatever k is (k <= 21 under the table guard)
_BLOCK_CELLS = 1 << 22
# distance cells that take as long as building one decode-table cell on a
# fresh code, rounded up: measured 1.4-5 for n = 14..20, and up to 10 for
# n <= 12, where a build is about 0.1 ms in all (2-core Xeon, numpy 2.4)
_TABLE_CELL_COST = 8
# XOR cells the coset sweep holds at once, as int64, before counting them
_SWEEP_CELLS = 1 << 16


def _popcount(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Set bits of each int64, all 64 of them, as uint8.  Counted on the
    uint64 view: on int64 itself np.bitwise_count counts the bits of |x|,
    and the scan relies on a word's bits above n adding the same count to
    every distance, sign bit included."""
    return np.bitwise_count(np.asarray(x, dtype=np.int64).view(np.uint64), out=out)


def bits_to_int(bits: np.ndarray) -> int:
    """Pack a bit vector into an int, index 0 most significant."""
    out = 0
    for b in np.asarray(bits).ravel().tolist():
        out = (out << 1) | int(b)
    return out


def int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _as_vector(x, length: int) -> np.ndarray:
    """x cast to a uint8 vector of the given length; entries are read mod 2,
    and callers reduce them where more than their parity matters."""
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit vector, got shape {arr.shape}")
    if arr.shape[0] != length:
        raise ValueError(f"expected length {length}, got {arr.shape[0]}")
    return arr


def _echelon(rows) -> tuple[list, list]:
    """Reduced echelon basis over F2 of packed-integer rows: the independent
    reduced rows and one pivot bit each, set in its own row and clear in
    every other, so clearing a word's pivots by those rows leaves 0 exactly
    when the word is in the span."""
    basis, pivots = [], []
    for row in rows:
        for b, p in zip(basis, pivots):
            if row & p:
                row ^= b
        if row:
            pivot = 1 << (row.bit_length() - 1)
            basis = [b ^ row if b & pivot else b for b in basis]
            basis.append(row)
            pivots.append(pivot)
    return basis, pivots


def f2_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over F2, by Gaussian elimination on packed rows."""
    mat = np.asarray(matrix, dtype=np.uint8) % 2
    return len(_echelon(bits_to_int(r) for r in mat)[0])


def _span(basis: np.ndarray) -> np.ndarray:
    """Every XOR combination of the k rows of ``basis``: row u of the result
    XORs the rows i whose bit k-1-i is set in u, so basis row 0 goes with
    the most significant bit.  Built by doubling, one XOR per output row."""
    k = basis.shape[0]
    out = np.zeros((1 << k,) + basis.shape[1:], dtype=basis.dtype)
    for i in range(k):
        np.bitwise_xor(out[: 1 << i], basis[k - 1 - i], out=out[1 << i : 2 << i])
    return out


@dataclass(frozen=True, eq=False)
class LinearCode:
    """An [n, k] binary linear code given by a full-column-rank generator;
    codes compare and hash by identity, as an ndarray field cannot.

    Parameters
    ----------
    generator : ndarray of shape (n, k)
        Codeword = generator @ message mod 2; its shape gives the block
        and message lengths n and k, 1 <= k <= n.
    """

    generator: np.ndarray = field(repr=False)
    n: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=np.uint8) % 2
        if gen.ndim != 2:
            raise ValueError(f"generator must be a 2-d array, got shape {gen.shape}")
        n, k = gen.shape
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if f2_rank(gen) != k:
            raise ValueError("generator does not have full column rank")
        object.__setattr__(self, "generator", gen)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)

    def _check_table(self):
        if (1 << self.k) * self.n > MAX_TABLE_CELLS:
            raise ResourceLimitError(f"2^{self.k} codewords of {self.n} bits exceed the "
                                     f"enumeration budget of {MAX_TABLE_CELLS} cells")

    @cached_property
    def codewords(self) -> np.ndarray:
        """All 2^k codewords as a (2^k, n) uint8 array, row u = codeword of
        message with packed value u."""
        self._check_table()
        return _span(self.generator.T)

    @cached_property
    def codeword_ints(self) -> np.ndarray:
        """The codeword table packed into int64, index 0 most significant."""
        if self.n > MAX_PACKED_BITS:
            raise ResourceLimitError(
                f"n={self.n} exceeds the {MAX_PACKED_BITS}-bit packed-word limit"
            )
        self._check_table()
        return _span(np.array([bits_to_int(col) for col in self.generator.T], dtype=np.int64))

    @cached_property
    def decode_table(self) -> np.ndarray:
        """Entry y of this 2^n int32 table is the ML decoding of the packed
        word y: the least message among those whose codewords are nearest.

        In the names of :func:`_coset_sweep`, the word y = rep_s ^ cw_a is
        nearest to the codewords cw_(a ^ b) with b in M_s, the offsets that
        reach the least weight min_b wt[s, b], so ML decoding returns min
        over b in M_s of a ^ b.  dead[j][s, q] says that q is not among the
        prefixes M_s >> j; dead[0] marks the offsets outside M_s.  One
        greedy pass over them, top bit first, finds the min: keep the
        result's bit j at 0 (b's bit j equal to a's) whenever that prefix of
        b is in M_s >> j, and flip it otherwise.  The levels, the pass and
        the scatter into the table run on each block the sweep yields, so
        beside the table they hold one block and that block's levels.
        Refuses n past the block budget before allocating.
        """
        if self.n > MAX_BLOCK_BITS:
            raise ResourceLimitError(f"a decode table of 2^{self.n} cells exceeds the "
                                     f"budget of 2^{MAX_BLOCK_BITS} cells")
        k, cw = self.k, self.codeword_ints
        a = np.arange(1 << k, dtype=np.int32)
        table = np.empty(1 << self.n, dtype=np.int32)
        for reps, wt in _coset_sweep(self):
            dead = [wt != wt.min(axis=1, keepdims=True)]
            for _ in range(k - 1):                     # dead if 2q and 2q+1 both are
                dead.append(dead[-1][:, 0::2] & dead[-1][:, 1::2])
            # at = row * 2^(k-j) + (prefix of b chosen so far) indexes dead[j].ravel()
            at = np.repeat(np.arange(len(reps), dtype=np.int32), 1 << k).reshape(len(reps), -1)
            for j in range(k - 1, -1, -1):
                at <<= 1
                at |= (a >> j) & 1
                at ^= np.take(dead[j], at)
            at &= (1 << k) - 1
            at ^= a
            table[reps[:, None] ^ cw[None, :]] = at
        return table


def random_code(n: int, k: int, seed: int) -> LinearCode:
    """Sample a uniform full-column-rank generator, resampling as needed.

    Deterministic for fixed (n, k, seed); seed must be an integer.  The
    rank is checked once, by LinearCode, which refuses a draw only for it.
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(_check_int("seed", seed))
    while True:
        gen = rng.integers(0, 2, size=(n, k), dtype=np.uint8)
        try:
            return LinearCode(gen)
        except ValueError:      # rank below k: draw again
            pass


def encode(code: LinearCode, message: np.ndarray) -> np.ndarray:
    # uint8 sums wrap mod 256, which keeps their parity
    return (code.generator @ _as_vector(message, code.k)) % 2


def _decode_index(code: LinearCode, word: np.ndarray) -> int:
    """ML decoding of a 0/1 uint8 word of length n that the caller made: the
    least packed message at least distance, by argmin over all 2^k codewords."""
    return int((code.codewords ^ word).sum(axis=1).argmin())


def _table_pays(code: LinearCode, words: int) -> bool:
    """Whether building the decode table costs less than scoring the words:
    words x 2^k distance cells against 2^n cells at _TABLE_CELL_COST each."""
    return code.n <= MAX_BLOCK_BITS and words << code.k >= _TABLE_CELL_COST << code.n


def ml_decode_packed(code: LinearCode, words) -> np.ndarray:
    """ML decoding of packed words (int64, index 0 most significant) to
    message integers, ties to the least message; bits above n are ignored.

    Gathers from the decode table when it is cached or when it pays to
    build it (:func:`_table_pays`).  Otherwise it takes the argmin over the
    codeword table, in blocks of at most 2^22 distance cells whatever k is.
    """
    words = np.asarray(words, dtype=np.int64)
    cached = "decode_table" in vars(code)          # where cached_property keeps it
    if cached or _table_pays(code, words.shape[0]):
        return code.decode_table[words & ((1 << code.n) - 1)].astype(np.int64)
    cw = code.codeword_ints
    rows = max(1, _BLOCK_CELLS >> code.k)
    out = np.empty(words.shape[0], dtype=np.int64)
    for start in range(0, words.shape[0], rows):
        block = words[start : start + rows]
        out[start : start + rows] = np.argmin(_popcount(block[:, None] ^ cw[None, :]), axis=1)
    return out


def _coset_sweep(code: LinearCode):
    """The standard array of the code, yielded as blocks (reps, wt) of rows.

    The 2^(n-k) words zero on the pivots of a reduced echelon basis are one
    representative per coset, so e = reps[s] ^ cw_a lists every word once,
    with uint8 weight wt[s, a].  A block holds max(1, _SWEEP_CELLS / 2^k)
    rows, weighed from XOR blocks of at most _SWEEP_CELLS int64 cells; no
    2^n table is built.
    """
    _, pivots = _echelon(bits_to_int(col) for col in code.generator.T)
    free = [1 << b for b in range(code.n) if not (1 << b) & sum(pivots)]
    reps = _span(np.array(free, dtype=np.int64))
    cw = code.codeword_ints
    rows, cols = max(1, _SWEEP_CELLS >> code.k), min(len(cw), _SWEEP_CELLS)
    for s in range(0, len(reps), rows):
        block = reps[s : s + rows]
        wt = np.empty((len(block), len(cw)), dtype=np.uint8)
        for a in range(0, len(cw), cols):
            _popcount(block[:, None] ^ cw[None, a : a + cols], out=wt[:, a : a + cols])
        yield block, wt


def _check_flip_prob(p: float):
    if not 0.0 <= p <= 1.0:               # nan fails too
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")


def exact_failure_prob(code: LinearCode, p: float) -> float:
    """Exact BSC decode-failure probability, averaged over uniform messages,
    correctly rounded for the double p.

    Substitute y = cw_m ^ e: success = 2^-k sum_m sum_e P(e) [m decoded]
    = 2^-k sum_y P(y ^ cw_decoded(y)).  ML decoding leaves y ^ cw_decoded(y)
    at the least weight w_s of y's coset (see :func:`_coset_sweep`), whatever
    the tie rule, and each coset holds 2^k words y, so success = sum over
    cosets of p^w_s (1 - p)^(n - w_s).  With L_w cosets of least weight w,
    failure = sum_w (C(n, w) - L_w) p^w (1 - p)^(n - w), a sum of
    nonnegative terms, taken in integers from p = a / b and divided once.
    L_w is summed over the sweep's blocks from their row minima, so no
    2^n table is held.  Refuses n beyond the block budget.
    """
    _check_flip_prob(p)
    if code.n > MAX_BLOCK_BITS:
        raise ResourceLimitError(
            f"n={code.n} exceeds the enumeration budget of {MAX_BLOCK_BITS}"
        )
    n = code.n
    leaders = sum(np.bincount(wt.min(axis=1), minlength=n + 1)            # L_w
                  for _, wt in _coset_sweep(code)).tolist()
    a, b = float(p).as_integer_ratio()
    return sum((math.comb(n, w) - leaders[w]) * a**w * (b - a) ** (n - w)
               for w in range(n + 1)) / b**n


def _check_trials(trials: int, n: int):
    """Refuse a sampling call before it draws anything: trials must be a
    positive integer and the trials x n sampled bits within MAX_SAMPLED_BITS."""
    trials = _check_int("trials", trials)
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if trials * n > MAX_SAMPLED_BITS:
        raise ResourceLimitError(f"{trials} trials of {n} bits exceed the sampling "
                                 f"budget of {MAX_SAMPLED_BITS} bits")


def mc_failure_prob(code: LinearCode, p: float, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the decode-failure probability, decoded by
    :func:`ml_decode_packed`; drawn in chunks of max(1024, 2^22 / 2^k) trials,
    cut to at most 2^22 / n so that no chunk draws more than 2^22 error bits,
    after building the decode table if all the trials pay for it.  Refuses p
    outside [0, 1] (nan too), a seed that is not an integer and more than
    MAX_SAMPLED_BITS error bits in all, before anything is drawn."""
    _check_flip_prob(p)
    seed = _check_int("seed", seed)
    _check_trials(trials, code.n)
    cw = code.codeword_ints
    if _table_pays(code, trials):
        code.decode_table
    rng = np.random.default_rng(seed)
    weights = 1 << np.arange(code.n - 1, -1, -1, dtype=np.int64)
    failures = 0
    chunk = min(max(1024, _BLOCK_CELLS >> code.k), _BLOCK_CELLS // code.n)
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        msgs = rng.integers(0, cw.shape[0], size=m)
        flips = rng.random((m, code.n)) < p
        received = cw[msgs] ^ (flips @ weights)
        failures += int(np.sum(ml_decode_packed(code, received) != msgs))
    return failures / trials
