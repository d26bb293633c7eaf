"""Binary linear codes over F2 at desk scale.

Everything here is exhaustive on purpose: decoding enumerates all 2^k
codewords, failure probabilities enumerate all 2^n error patterns.  That is
the regime where exact numbers are available to pin down the behaviour of
the wrapping protocol; guards refuse inputs past the enumeration budget
instead of silently degrading.

Bit vectors are numpy uint8 arrays.  A message ``m`` of length k maps to the
codeword ``G @ m mod 2`` with ``G`` an n-by-k full-column-rank generator.
Lexicographic order on bit vectors treats index 0 as the most significant
position, which matches numeric order on the packed integers used
internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import json

import numpy as np

from .errors import ResourceLimitError

__all__ = [
    "LinearCode",
    "random_code",
    "random_f2_matrix",
    "f2_rank",
    "encode",
    "bsc_sample",
    "ml_decode",
    "exact_failure_prob",
    "mc_failure_prob",
    "bits_to_int",
    "int_to_bits",
]

# enumeration guards: 2^k codewords / 2^n error patterns
MAX_MESSAGE_BITS = 24
MAX_BLOCK_BITS = 20
# words packed into int64 for sampled decoding, sign bit left clear
MAX_PACKED_BITS = 62

_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount(x: np.ndarray) -> np.ndarray:
    """Set bits of each int64, all 64 of them, from four 16-bit lookups."""
    x = np.ascontiguousarray(x, dtype=np.int64)
    words = x.view(np.uint16).reshape(x.shape + (4,))
    out = _POP16[words[..., 0]]
    for i in (1, 2, 3):
        out += _POP16[words[..., i]]   # uint8 holds any count up to 64
    return out.astype(np.int64)


def bits_to_int(bits: np.ndarray) -> int:
    """Pack a bit vector into an int, index 0 most significant."""
    out = 0
    for b in np.asarray(bits).ravel():
        out = (out << 1) | int(b)
    return out


def int_to_bits(value: int, width: int) -> np.ndarray:
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def _as_bits(x, length: int | None = None) -> np.ndarray:
    arr = np.asarray(x, dtype=np.uint8) % 2
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit vector, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"expected length {length}, got {arr.shape[0]}")
    return arr


def f2_rank(matrix: np.ndarray) -> int:
    """Rank of a 0/1 matrix over F2, by Gaussian elimination on packed rows."""
    mat = np.asarray(matrix, dtype=np.uint8) % 2
    rows = [bits_to_int(r) for r in mat]
    rank = 0
    ncols = mat.shape[1] if mat.ndim == 2 else 0
    for col in range(ncols):
        bit = 1 << (ncols - 1 - col)
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


@dataclass(frozen=True)
class LinearCode:
    """An [n, k] binary linear code given by a full-column-rank generator.

    Parameters
    ----------
    n, k : int
        Block and message lengths, 1 <= k <= n.
    generator : ndarray of shape (n, k)
        Codeword = generator @ message mod 2.
    seed : int or None
        Seed the generator was sampled from, if any (for provenance only).
    """

    n: int
    k: int
    generator: np.ndarray = field(repr=False)
    seed: int | None = None

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=np.uint8) % 2
        if gen.shape != (self.n, self.k):
            raise ValueError(f"generator shape {gen.shape} != ({self.n}, {self.k})")
        if not (1 <= self.k <= self.n):
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if f2_rank(gen) != self.k:
            raise ValueError("generator does not have full column rank")
        object.__setattr__(self, "generator", gen)

    @property
    def rate(self) -> float:
        return self.k / self.n

    @cached_property
    def codewords(self) -> np.ndarray:
        """All 2^k codewords as a (2^k, n) uint8 array, row u = codeword of
        message with packed value u."""
        if self.k > MAX_MESSAGE_BITS:
            raise ResourceLimitError(
                f"k={self.k} exceeds the enumeration budget of {MAX_MESSAGE_BITS}"
            )
        msgs = ((np.arange(1 << self.k)[:, None] >> np.arange(self.k - 1, -1, -1)) & 1)
        return (msgs.astype(np.uint8) @ self.generator.T) % 2

    @cached_property
    def codeword_ints(self) -> np.ndarray:
        weights = 1 << np.arange(self.n - 1, -1, -1, dtype=np.int64)
        return self.codewords.astype(np.int64) @ weights

    def min_distance(self) -> int:
        w = self.codewords[1:].sum(axis=1)
        return int(w.min())

    def to_json(self) -> str:
        bits = self.generator.ravel()  # row-major
        padded = np.zeros((-len(bits)) % 8 + len(bits), dtype=np.uint8)
        padded[: len(bits)] = bits
        packed = np.packbits(padded)
        return json.dumps(
            {"n": self.n, "k": self.k, "generator": packed.tobytes().hex(), "seed": self.seed}
        )

    @classmethod
    def from_json(cls, text: str) -> "LinearCode":
        try:
            obj = json.loads(text)
            n, k = int(obj["n"]), int(obj["k"])
            raw = np.frombuffer(bytes.fromhex(obj["generator"]), dtype=np.uint8)
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed code description: {exc}") from exc
        bits = np.unpackbits(raw)[: n * k].reshape(n, k)
        return cls(n=n, k=k, generator=bits, seed=obj.get("seed"))


def random_f2_matrix(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """One IID-uniform draw of an n-by-k 0/1 matrix (no rank condition)."""
    return rng.integers(0, 2, size=(n, k), dtype=np.uint8)


def random_code(n: int, k: int, seed: int) -> LinearCode:
    """Sample a uniform full-column-rank generator, resampling as needed.

    Deterministic for fixed (n, k, seed).
    """
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    while True:
        gen = random_f2_matrix(n, k, rng)
        if f2_rank(gen) == k:
            return LinearCode(n=n, k=k, generator=gen, seed=seed)


def encode(code: LinearCode, message: np.ndarray) -> np.ndarray:
    message = _as_bits(message, code.k)
    return (code.generator @ message) % 2


def bsc_sample(word: np.ndarray, p: float, seed) -> np.ndarray:
    """Push ``word`` through a binary symmetric channel with flip rate p.

    ``seed`` may be an int or an existing numpy Generator.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    word = _as_bits(word)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    flips = (rng.random(word.shape[0]) < p).astype(np.uint8)
    return word ^ flips


def ml_decode(code: LinearCode, word: np.ndarray) -> np.ndarray:
    """Nearest-codeword decoding, exhaustive over all 2^k codewords.

    Ties resolve to the lexicographically smallest message, i.e. the
    smallest packed message integer; argmin on the numerically ordered
    codeword table gives exactly that.
    """
    word = _as_bits(word, code.n)
    dists = (code.codewords != word[None, :]).sum(axis=1)
    best = int(np.argmin(dists))
    return int_to_bits(best, code.k)


def _failure_given_error(code: LinearCode, err_ints: np.ndarray) -> np.ndarray:
    """P[decode(c + e) != message | e], averaged over uniform messages.

    Distances d(G(m') , Gm + e) = d(G(m' ^ m), e), so the minimizing
    message-offsets U* do not depend on m.  Decoding succeeds iff 0 is in
    U* and no other minimizer u flips a more-significant-1 position of m
    downward; over uniform m that has probability 2^-|S| with S the set of
    leading-bit positions of the nonzero minimizers.
    """
    cw = code.codeword_ints  # (2^k,)
    nmsg = cw.shape[0]
    # leading set bit of each nonzero offset u, as a one-hot mask over k positions
    u = np.arange(nmsg, dtype=np.int64)
    lead = np.zeros(nmsg, dtype=np.int64)
    lead[1:] = 1 << (np.floor(np.log2(u[1:])).astype(np.int64))
    dists = _popcount(err_ints[:, None] ^ cw[None, :])
    dmin = dists.min(axis=1)
    is_min = dists == dmin[:, None]
    zero_ok = is_min[:, 0]
    masks = np.bitwise_or.reduce(np.where(is_min[:, 1:], lead[None, 1:], 0), axis=1)
    s_sizes = _popcount(masks)
    p_success = np.where(zero_ok, 0.5 ** s_sizes, 0.0)
    return 1.0 - p_success


def exact_failure_prob(code: LinearCode, p: float) -> float:
    """Exact BSC decode-failure probability, averaged over uniform codewords.

    Enumerates all 2^n error patterns; refuses n beyond the block budget.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability must lie in [0, 1], got {p}")
    if code.n > MAX_BLOCK_BITS:
        raise ResourceLimitError(
            f"n={code.n} exceeds the enumeration budget of {MAX_BLOCK_BITS}"
        )
    total = 0.0
    all_errs = np.arange(1 << code.n, dtype=np.int64)
    # keep the (chunk x 2^k) distance block modest
    chunk = max(1024, (1 << 22) // (1 << code.k))
    for start in range(0, all_errs.shape[0], chunk):
        errs = all_errs[start : start + chunk]
        w = _popcount(errs)
        prob = p ** w * (1.0 - p) ** (code.n - w)
        total += float(np.dot(prob, _failure_given_error(code, errs)))
    return total


def mc_failure_prob(code: LinearCode, p: float, trials: int, seed: int) -> float:
    """Monte-Carlo estimate of the decode-failure probability.

    Uses the same tie convention as :func:`ml_decode` (argmin over the
    numerically ordered codeword table).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if code.n > MAX_PACKED_BITS:
        raise ResourceLimitError(
            f"n={code.n} exceeds the {MAX_PACKED_BITS}-bit packed-word limit"
        )
    rng = np.random.default_rng(seed)
    cw = code.codeword_ints
    weights = 1 << np.arange(code.n - 1, -1, -1, dtype=np.int64)
    failures = 0
    chunk = max(1024, (1 << 22) // cw.shape[0])
    remaining = trials
    while remaining > 0:
        m = min(chunk, remaining)
        msgs = rng.integers(0, cw.shape[0], size=m)
        flips = (rng.random((m, code.n)) < p).astype(np.int64)
        errs = flips @ weights
        received = cw[msgs] ^ errs
        dists = _popcount(received[:, None] ^ cw[None, :])
        decoded = np.argmin(dists, axis=1)
        failures += int(np.sum(decoded != msgs))
        remaining -= m
    return failures / trials
