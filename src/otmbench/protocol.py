"""One-time memory protocol over QRAC qubits and random linear codes.

Two layers.  The random-string layer samples two codewords, encodes them
pairwise into qubits, and lets a reader recover exactly one of the two
strings by measuring every qubit in that string's basis and ML-decoding
the resulting noisy word.  The message layer wraps this with Toeplitz
extractors: each message is one-time-padded by the extractor output of
its codeword, so recovering a codeword unlocks exactly one message.

Everything here is a simulator: instances retain their secrets so tests
can score success rates against ground truth, enumerate exact adversary
view distributions, and compare them with the ideal simulation in which
the unread ciphertext is replaced by fresh uniform bits.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .collinfo import JointDistribution, avg_conditional_min_entropy
from .errors import InvariantViolationError, ResourceLimitError, _check_int
from .f2codes import (MAX_PACKED_BITS, LinearCode, _check_trials, _decode_index, bits_to_int,
                      encode, exact_failure_prob, int_to_bits, ml_decode_packed, random_code)
from .povmsearch import REFERENCE_SETS, _outcome_table, _QUANTITY, pair_info
from .qrac import ENCODING_ANGLES, READOUT_P0, _check_alpha
from .seeds import _coin_bits, derive_seed

__all__ = [
    "PER_PAIR_BOUNDS",
    "ProtocolParams",
    "OtrmInstance",
    "ReadResult",
    "Extractor",
    "OtmPackage",
    "OtmReadResult",
    "LeakageReport",
    "LeakageSweep",
    "SimulatorReport",
    "otrm_read",
    "otm_prep",
    "otm_read",
    "mc_correctness",
    "leakage_experiment",
    "simulator_transcript",
]

# Certified per-pair leakage constants; a product strategy on m pairs is
# held to m times each.
PER_PAIR_BOUNDS = REFERENCE_SETS["0.59/0.59/0.65"]

_CHANNEL_P = math.sin(math.pi / 8) ** 2   # bit-flip rate seen by the matched basis
# qubit angle of the bit pair (b0, b1) as _ANGLES[b0, b1]
_ANGLES = np.array([[ENCODING_ANGLES[(b0, b1)] for b1 in (0, 1)] for b0 in (0, 1)])


def _record(cls, **fields):
    """A cls record holding fields, set in one write of its instance dict
    and not through __init__: for values the caller has just built and
    checked, which __post_init__ would only check again."""
    rec = object.__new__(cls)
    vars(rec).update(fields)
    return rec


@dataclass(frozen=True)
class ProtocolParams:
    """Sizes for one protocol run.

    Give k or rate; the other is derived (both are accepted only when
    consistent).  n, lam and a given k must be integers.  The message
    length is lam/8 bits; it must come out integral and at most n, as the
    extractors compress the n codeword bits to it.  Past those checks, n
    above f2codes.MAX_PACKED_BITS is refused as a ResourceLimitError:
    sampled reads pack each word into one int64.
    """

    n: int
    lam: int
    k: int | None = None
    rate: float | None = None

    def __post_init__(self):
        for name in ("n", "lam") if self.k is None else ("n", "lam", "k"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.k is None and self.rate is None:
            raise ValueError("give k or rate")
        if self.k is None:
            k = self.rate * self.n
            if not math.isfinite(k) or abs(k - round(k)) > 1e-9:
                raise ValueError(f"rate*n = {k} is not an integer")
            object.__setattr__(self, "k", int(round(k)))
        if self.rate is None:
            object.__setattr__(self, "rate", self.k / self.n)
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not abs(self.rate * self.n - self.k) <= 1e-9:   # nan fails too
            raise ValueError(f"rate {self.rate} inconsistent with k={self.k}, n={self.n}")
        if self.lam < 0 or self.lam % 8:
            raise ValueError(f"lam must be a nonnegative multiple of 8, got {self.lam}")
        if self.msg_len > self.n:
            raise ValueError(f"lam={self.lam} gives {self.msg_len} message bits, "
                             f"more than n={self.n}")
        if self.n > MAX_PACKED_BITS:
            raise ResourceLimitError(f"n={self.n} exceeds the {MAX_PACKED_BITS}-bit "
                                     "packed-word limit")

    @property
    def msg_len(self) -> int:
        return self.lam // 8


@dataclass(frozen=True, eq=False)
class OtrmInstance:
    """Sender view of one random-string memory: secrets included.  The
    public constructor takes the two codes and secrets alone and checks
    them: the secrets are kept as k-bit uint8 vectors reduced mod 2 (encode
    checks their shapes), and the codewords c0, c1 (the encodings of r0, r1)
    are derived.  Qubit i is the state at angle angles[i], the QRAC
    encoding of (c0[i], c1[i]), computed on first read."""

    code0: LinearCode
    code1: LinearCode
    r0: np.ndarray
    r1: np.ndarray
    c0: np.ndarray = field(init=False)
    c1: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.code0.n != self.code1.n:
            raise InvariantViolationError(
                f"code lengths {self.code0.n} and {self.code1.n} disagree")
        r0 = np.asarray(self.r0, dtype=np.uint8) & 1
        r1 = np.asarray(self.r1, dtype=np.uint8) & 1
        c0, c1 = encode(self.code0, r0), encode(self.code1, r1)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)

    @cached_property
    def angles(self) -> np.ndarray:
        return _ANGLES[self.c0, self.c1]


def _code_pair(params: ProtocolParams, codes, root: int, label: str) -> tuple:
    """The supplied pair checked against params, or fresh codes drawn from
    the labeled sub-streams label0 and label1 of root."""
    if codes is None:
        return tuple(random_code(params.n, params.k, derive_seed(root, f"{label}{i}"))
                     for i in (0, 1))
    if any(c.n != params.n or c.k != params.k for c in codes):
        raise ValueError("code shapes disagree with params")
    return tuple(codes)


@dataclass(frozen=True, eq=False)
class ReadResult:
    """Outcome of one full read: the decode plus ground-truth scoring."""

    alpha: int
    word: np.ndarray          # raw measurement outcomes, one bit per qubit
    message: np.ndarray       # ML-decoded k-bit message
    codeword: np.ndarray      # encoding of message
    success: bool             # message equals the instance's secret


def otrm_read(instance: OtrmInstance, alpha: int, seed: int) -> ReadResult:
    """Measure every qubit in basis alpha and ML-decode the word.

    The matched basis turns each qubit into one use of a binary symmetric
    channel at crossover sin^2(pi/8) on the chosen codeword; decode
    failure is reported via the success flag (the receiver itself cannot
    detect it).  Qubit i reads 1 where the i-th uniform draw of
    default_rng(seed) reaches READOUT_P0[alpha, c0[i], c1[i]], its
    probability of outcome 0.  alpha, then seed, must be integers: a
    float, a bool or None is refused before anything is drawn.
    """
    alpha = _check_alpha(alpha)
    rng = np.random.default_rng(_check_int("seed", seed))
    p0 = READOUT_P0[alpha][instance.c0, instance.c1]
    word = (rng.random(p0.shape) >= p0).astype(np.uint8)
    code = (instance.code0, instance.code1)[alpha]
    u = _decode_index(code, word)          # the drawn word is 0/1 already
    msg = int_to_bits(u, code.k)
    return _record(ReadResult, alpha=alpha, word=word, message=msg,
                   codeword=code.codewords[u].copy(),
                   success=msg.tolist() == (instance.r0, instance.r1)[alpha].tolist())


def _seed_len(input_len: int, output_len: int) -> int:
    """Seed bits of the Toeplitz extractor from input_len to output_len bits:
    input_len + output_len - 1, and 0 at output_len 0.  Both sizes must be
    integers with 0 <= output_len <= input_len."""
    n, msg = _check_int("input_len", input_len), _check_int("output_len", output_len)
    if not 0 <= msg <= n:
        raise ValueError(f"need 0 <= output_len <= input_len, got {msg}, {n}")
    return n + msg - 1 if msg else 0


@dataclass(frozen=True, eq=False)
class Extractor:
    """Toeplitz two-universal hash over F2, fixed by its public seed bits.
    The public constructor checks the sizes and reduces the bits mod 2."""

    bits: np.ndarray
    input_len: int
    output_len: int

    def __post_init__(self):
        want = _seed_len(self.input_len, self.output_len)
        object.__setattr__(self, "input_len", int(self.input_len))
        object.__setattr__(self, "output_len", int(self.output_len))
        bits = np.asarray(self.bits, dtype=np.uint8) & 1
        object.__setattr__(self, "bits", bits)
        if bits.shape != (want,):
            raise ValueError(f"seed must hold {want} bits, got shape {bits.shape}")

    def apply(self, x) -> np.ndarray:
        """T @ (x mod 2) mod 2 for the Toeplitz matrix T[i, j] =
        bits[i - j + n - 1], n = input_len, without building T: entry i is
        sum_j bits[i - j + n - 1] x_j = sum_j bits[i + j] x[n - 1 - j],
        the i-th window of bits against x reversed.
        uint8 sums wrap mod 256, which keeps their parity, so x needs no
        reduction first."""
        x = np.asarray(x, dtype=np.uint8)
        n = self.input_len
        if x.shape != (n,):
            raise ValueError(f"input must hold {n} bits")
        if not self.output_len:                 # np.correlate refuses an empty seed
            return np.zeros(0, dtype=np.uint8)
        return np.correlate(self.bits, x[::-1]) & 1      # "valid": one sum per window


@dataclass(frozen=True, eq=False)
class OtmPackage:
    """Message-layer package: instance, ciphertexts, public extractors."""

    instance: OtrmInstance
    ct0: np.ndarray
    ct1: np.ndarray
    ext0: Extractor
    ext1: Extractor


def _messages(params: ProtocolParams, m0, m1) -> tuple:
    """The two messages as uint8 vectors reduced mod 2, each of lam/8 bits."""
    m0 = np.asarray(m0, dtype=np.uint8) & 1
    m1 = np.asarray(m1, dtype=np.uint8) & 1
    if m0.shape != (params.msg_len,) or m1.shape != (params.msg_len,):
        raise ValueError(f"messages must hold lam/8 = {params.msg_len} bits")
    return m0, m1


def otm_prep(m0, m1, params: ProtocolParams, seed: int = 0,
             codes: tuple | None = None) -> OtmPackage:
    """Sample the random-string instance and both extractors, and pad each
    message with its codeword's extractor output.

    All randomness derives from labeled sub-streams of seed, so one integer
    reproduces the package.  Under root = derive_seed(seed, "otrm"), fresh
    codes come from its "code0" and "code1" streams unless a fixed public
    pair is supplied, and the secrets r0, r1 are two successive k-bit
    integers(0, 2, dtype=np.uint8) draws of its "messages" stream; each
    extractor's seed bits (n + lam/8 - 1 of them, none at lam = 0) are one
    such draw of the "ext0" or "ext1" stream of seed.  The three draws are
    one seeds._coin_bits call, and the records are filled from the values
    drawn, not through their constructors.
    """
    m0, m1 = _messages(params, m0, m1)
    root = derive_seed(seed, "otrm")
    code0, code1 = _code_pair(params, codes, root, "code")
    n, k, msg = params.n, params.k, params.msg_len
    want = _seed_len(n, msg)
    (r0, r1), (bits0,), (bits1,) = _coin_bits((derive_seed(root, "messages"), (k, k)),
                                              (derive_seed(seed, "ext0"), (want,)),
                                              (derive_seed(seed, "ext1"), (want,)))
    # encode's arithmetic on secrets that are already 0/1 vectors of length k
    c0, c1 = (code0.generator @ r0) % 2, (code1.generator @ r1) % 2
    instance = _record(OtrmInstance, code0=code0, code1=code1, r0=r0, r1=r1, c0=c0, c1=c1)
    ext0 = _record(Extractor, bits=bits0, input_len=n, output_len=msg)
    ext1 = _record(Extractor, bits=bits1, input_len=n, output_len=msg)
    return _record(OtmPackage, instance=instance, ct0=m0 ^ ext0.apply(c0),
                   ct1=m1 ^ ext1.apply(c1), ext0=ext0, ext1=ext1)


@dataclass(frozen=True, eq=False)
class OtmReadResult:
    alpha: int
    message: np.ndarray
    success: bool
    inner: ReadResult


def otm_read(pkg: OtmPackage, alpha: int, seed: int) -> OtmReadResult:
    """Read one string, re-derive its pad, and unmask the ciphertext.

    The output equals the hidden message exactly when the inner decode
    succeeded; otherwise the pad is wrong and the output is garbage, and
    the success flag (ground truth, for scoring) says so.
    """
    inner = otrm_read(pkg.instance, alpha, seed)
    ext, ct = (pkg.ext0, pkg.ct0) if inner.alpha == 0 else (pkg.ext1, pkg.ct1)
    return _record(OtmReadResult, alpha=inner.alpha, message=ct ^ ext.apply(inner.codeword),
                   success=inner.success, inner=inner)


def mc_correctness(params: ProtocolParams, alpha: int, trials: int, seed: int,
                   codes: tuple | None = None) -> dict:
    """Monte-Carlo read failures over fresh message pairs, sampled and
    decoded in blocks from one generator, with the exact failure probability
    of the code read (None where exact_failure_prob refuses it).  Codes are
    drawn from the seed unless a pair is supplied.  Refuses trials x n past
    f2codes.MAX_SAMPLED_BITS before drawing anything.
    """
    alpha = _check_alpha(alpha)
    _check_trials(trials, params.n)
    codes = _code_pair(params, codes, seed, "mc-code")
    cws = tuple(c.codewords for c in codes)
    code, p0 = codes[alpha], READOUT_P0[alpha]
    pack = 1 << np.arange(params.n - 1, -1, -1, dtype=np.int64)
    rng = np.random.default_rng(derive_seed(seed, "mc-reads"))
    block = max(1, (1 << 20) // params.n)             # trials per block: 2^20 qubits
    failures = 0
    for start in range(0, trials, block):
        m = min(block, trials - start)
        msgs = [rng.integers(0, cw.shape[0], size=m) for cw in cws]
        bits0, bits1 = (cw[r] for cw, r in zip(cws, msgs))
        word = rng.random(bits0.shape) >= p0[bits0, bits1]
        decoded = ml_decode_packed(code, word @ pack)
        failures += int(np.sum(decoded != msgs[alpha]))
    try:
        exact = exact_failure_prob(code, _CHANNEL_P)
    except ResourceLimitError:                        # n past f2codes' exact budget
        exact = None
    return {
        "alpha": alpha,
        "trials": trials,
        "failures": failures,
        "empirical_failure": failures / trials,
        "exact_failure": exact,
    }


# ---------------------------------------------------------------------------
# exact leakage experiments

class LeakageReport(NamedTuple):
    """Exact per-strategy leakage figures against the m-fold pair bounds."""

    m: int
    strategy: tuple
    ic_b0: float
    ic_b1: float
    total: float
    cond_b0: float            # I_c(b0-string : outcomes | b1-string)
    cond_b1: float
    lesser: int               # index of the string with the smaller leakage; 0 on a tie

    @property
    def bounds(self) -> dict:
        """Per quantity: its value, its limit m times the pair bound, and
        whether the value is within the limit (to 1e-9)."""
        out = {}
        for q, quant in _QUANTITY.items():
            value = float(quant.from_figures(self.ic_b0, self.ic_b1, self.cond_b0, self.cond_b1))
            limit = self.m * PER_PAIR_BOUNDS[q]
            out[q] = {"value": value, "limit": limit, "ok": value <= limit + 1e-9}
        return out


class _SweepRows(Sequence):
    """The reports of an exhaustive sweep, built when read.

    The view holds the pair count m, the grid's entry labels and the
    sweep's figure columns; row r is the strategy whose i-th entry is digit
    i of r in base len(labels), most significant first (itertools.product
    order).  Each read builds the LeakageReport of its row: len, integer
    and negative indexes, slices (a tuple of reports) and iteration behave
    as on a tuple of every report.  Two views are equal when their m,
    labels and columns are."""

    __slots__ = ("m", "labels", "_figures", "_lesser")

    def __init__(self, m: int, labels: tuple, figures: np.ndarray, lesser: np.ndarray):
        self.m = m
        self.labels = labels
        self._figures = figures           # (5, rows): ic_b0, ic_b1, total, cond_b0, cond_b1
        self._lesser = lesser             # (rows,) int64

    def __len__(self) -> int:
        return len(self._lesser)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        row = operator.index(i)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError(f"sweep row {i} out of range for {len(self)} rows")
        count, rest, digits = len(self.labels), row, []
        for _ in range(self.m):
            rest, digit = divmod(rest, count)
            digits.append(self.labels[digit])
        return LeakageReport._make((self.m, tuple(reversed(digits)),
                                    *self._figures[:, row].tolist(), int(self._lesser[row])))

    def __iter__(self):
        labels = itertools.product(self.labels, repeat=self.m)
        return map(LeakageReport._make, zip(itertools.repeat(self.m), labels,
                                            *self._figures.tolist(), self._lesser.tolist()))

    def __eq__(self, other):
        if not isinstance(other, _SweepRows):
            return NotImplemented
        return (self.m == other.m and self.labels == other.labels
                and np.array_equal(self._figures, other._figures)
                and np.array_equal(self._lesser, other._lesser))

    def __repr__(self) -> str:
        return f"<{len(self)} sweep rows, m={self.m}, labels={self.labels!r}>"


@dataclass(frozen=True)
class LeakageSweep:
    """An exhaustive sweep: its worst figures and all_ok, read from the
    figure columns, and its reports as a read-only sequence built when read
    (see _SweepRows)."""

    m: int
    reports: Sequence[LeakageReport]
    worst: dict
    all_ok: bool


_TIE = 1e-12                  # |ic_b0 - ic_b1| at most this is a tie
_MAX_SWEEP_ROWS = 20_000      # product strategies one sweep may list
# index cells, rows x m, one sweep may hold: every grid of two or more entries
# that the row budget admits fits (at most 2^14 rows x 14 pairs), so this
# bounds only m on a one-entry grid
_MAX_SWEEP_CELLS = 1 << 18


def _product_figures(per: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Figures ic_b0, ic_b1, cond_b0, cond_b1 of product strategies, as the
    rows of a (4, strategies) array, from per-entry figures per[e], the
    (ic_b0, ic_b1, cond_b0, cond_b1) of one pair measured by entry e, and
    idx[s, i], the entry that measures pair i under strategy s.

    Every figure of a product strategy is the sum of its pairs' figures.
    The pairs are independent, so the joint of the (b0, b1, outcome)
    strings is p = prod_i p_i, and likewise each of its marginals.  Hence
    sum_x p(x)^2 = prod_i sum_{x_i} p_i(x_i)^2, and on every slice y of
    positive mass p(x|y) = prod_i p_i(x_i|y_i), so

        sum_{x,y} p(x,y) p(x|y) = prod_i sum_{x_i,y_i} p_i(x_i,y_i) p_i(x_i|y_i).

    A slice y has zero mass exactly when some factor p_i(y_i) is zero;
    there p(x,y) is zero for every x too, so collinfo's convention drops
    the same terms factor-wise on both sides.  Taking -log2 turns the
    products into sums: H_c(X) and H_c(X|Y) are additive, and so are
    I_c(X:Y) = H_c(X) - H_c(X|Y) and I_c(X:Y|Z) = H_c(X|Z) - H_c(X|YZ).
    The tests hold this against the dense joint of all m pairs.

    Each figure is summed over its sorted pair values, so a strategy's
    figures, and its lesser string, do not depend on the order of its
    entries.  The sort is on integer ranks: a stable argsort ranks the
    entries by the figure once, each strategy's ranks are sorted, and the
    values at those ranks are added left to right.  The sums are those of
    the float sort, np.sort(per[idx], axis=1).sum(axis=1), bit for bit:

    - Sorting the ranks orders each strategy's values as np.sort does.  A
      smaller rank never holds a larger value, so the values at the sorted
      ranks are a non-decreasing arrangement of the strategy's values, and
      two such arrangements of one multiset agree, position by position,
      up to equal values.
    - Equal values are bitwise equal, so where the two orders place
      different entries they place the same bits.  Figures are finite, and
      only +0.0 and -0.0 are equal floats with different bits; no figure
      is -0.0, as each is a difference x - y of finite floats whose
      minuend is a collision entropy of a uniform bit (about 1), and a
      difference is -0.0 only when x is -0.0 (x - x is +0.0).
    - Both sums add in the same order.  numpy reduces an axis that is not
      the innermost one with one add per index, in index order; pairwise
      summation applies only along the innermost axis.  The float sort
      reduces the middle axis of a (strategies, m, 4) array, and the
      (m, 4, strategies) array here is reduced along its first axis: both
      add the m sorted values left to right.
    """
    rows, m = idx.shape
    count, width = per.shape
    ranked = np.empty((m, width, rows))
    for j in range(width):
        order = np.argsort(per[:, j], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(count)
        ranked[:, j] = per[order, j][np.sort(rank[idx], axis=1).T]
    return ranked.sum(axis=0)


def _sweep_index(count: int, m: int) -> np.ndarray:
    """Every assignment of count entries to m pairs, one row each, in
    itertools.product order.  Refuses more than _MAX_SWEEP_ROWS rows or
    _MAX_SWEEP_CELLS index cells before anything is allocated, in time
    that does not grow with m: a grid of two or more entries passes the
    row budget by m = 15, and one entry gives one row at any m."""
    rows = 1 if count == 1 else count ** min(m, _MAX_SWEEP_ROWS.bit_length())
    if rows > _MAX_SWEEP_ROWS:
        raise ResourceLimitError(f"{count}^{m} product strategies exceed the sweep budget")
    if rows * m > _MAX_SWEEP_CELLS:
        raise ResourceLimitError(f"{rows} x {m} index cells exceed the sweep budget")
    # digit i of row r in base count, most significant first
    return np.arange(rows)[:, None] // count ** np.arange(m - 1, -1, -1) % count


def leakage_experiment(m: int, strategy=None, exhaustive: bool = False,
                       angles: Sequence[float] | None = None):
    """Exact leakage of product strategies on m independent pairs.

    One strategy (a basis angle or a Povm per entry) gives one
    LeakageReport.  With exhaustive=True the grid of per-qubit angles
    (default: 9 angles, multiples of pi/16 up to pi/2) is swept over all
    product assignments and the worst case per figure is reported; a
    strategy with exhaustive=True, or angles without it, is refused.
    Figures come from the one-pair joint of each entry and add up over
    the pairs (see _product_figures).  A sweep holds its figure columns,
    not its reports: worst and all_ok are read from the columns, and
    each report is built when the caller reads it (see _SweepRows).
    """
    m = _check_int("m", m)
    if m < 1:
        raise ValueError(f"need m >= 1 pairs, got {m}")
    if exhaustive:
        if strategy is not None:
            raise ValueError("exhaustive sweep generates its own strategies")
        if angles is None:
            angles = [j * math.pi / 16 for j in range(9)]
        entries = list(angles)
        if not entries:
            raise ValueError("the sweep grid angles lists no entries")
        idx = _sweep_index(len(entries), m)
    else:
        if angles is not None:
            raise ValueError("angles are the exhaustive sweep's grid; "
                             "give them with exhaustive=True")
        if strategy is None or len(strategy) != m:
            raise ValueError(f"strategy must list {m} per-qubit measurements")
        entries = list(strategy)
        idx = np.arange(m)[None, :]
    names, tables = zip(*map(_outcome_table, entries))
    # one pair_info per distinct outcome table, all that pair_info reads,
    # scattered back to every entry; tables are (2, 2, outcomes), so equal
    # bytes are equal tables
    keys = [t.tobytes() for t in tables]
    distinct = dict(zip(keys, tables))
    slot = {key: s for s, key in enumerate(distinct)}
    figs = np.array([pair_info(t) for t in distinct.values()])
    ic0, ic1, c0, c1 = _product_figures(figs.reshape(-1, 4)[[slot[key] for key in keys]], idx)
    figures = np.stack((ic0, ic1, ic0 + ic1, c0, c1))
    lesser = (ic0 - ic1 > _TIE).astype(np.int64)
    if not exhaustive:
        return LeakageReport(m, names, *figures[:, 0].tolist(), int(lesser[0]))
    values = {q: quant.from_figures(ic0, ic1, c0, c1) for q, quant in _QUANTITY.items()}
    return LeakageSweep(
        m=m,
        reports=_SweepRows(m, names, figures, lesser),
        worst={q: float(v.max()) for q, v in values.items()},
        all_ok=all(bool(np.all(v <= m * PER_PAIR_BOUNDS[q] + 1e-9)) for q, v in values.items()),
    )


# ---------------------------------------------------------------------------
# exact simulator comparison

# cells any one simulator stage may hold: the pad tables, the outcome table,
# or the seed-class tables held at once
_MAX_SIM_CELLS = 1 << 24


def _check_sim_cells(what: str, cells: int):
    if cells > _MAX_SIM_CELLS:
        raise ResourceLimitError(
            f"{what} would hold {cells} cells; shrink n, k, lam, or the strategy"
        )


def _pad_table(cws: np.ndarray, msg: int) -> np.ndarray:
    """Packed extractor output pad[w, r] for every seed value w (as an
    (n + msg - 1)-bit integer, index 0 most significant) and codeword row r:
    one stacked Toeplitz product over all seeds, entry (i, j) of seed w's
    matrix reading its bit i - j + n - 1."""
    n = cws.shape[1]
    seed_len = _seed_len(n, msg)
    shifts = np.arange(seed_len - 1, -1, -1)
    seeds = (np.arange(2 ** seed_len)[:, None] >> shifts) & 1          # (w, seed bit)
    toeplitz = np.arange(msg)[:, None] - np.arange(n)[None, :] + n - 1  # (i, j)
    bits = (seeds[:, toeplitz] @ cws.T) % 2                             # (w, i, r)
    return np.einsum("wir,i->wr", bits, 1 << np.arange(msg - 1, -1, -1))


def _seed_classes(m: np.ndarray, cws: np.ndarray, msg: int) -> tuple:
    """Seeds grouped by their ciphertext row ct[w, :] = m ^ pad(w, :), as
    (rows, counts): class c has row rows[c] and counts[c] seeds."""
    ct = bits_to_int(m) ^ _pad_table(cws, msg)
    return np.unique(ct, axis=0, return_counts=True)


@dataclass(frozen=True)
class SimulatorReport:
    """Exact figures of one simulator comparison."""

    exact_sd: float
    min_entropy_c1: float
    lhl_bound: float


def simulator_transcript(m0, m1, params: ProtocolParams, adversary_strategy=None,
                         seed: int = 0) -> SimulatorReport:
    """Exact adversary-view distributions, real versus simulated.

    The view is (extractor seeds, measurement outcomes, ct0, ct1) with
    uniform messages r0, r1, uniform extractor seeds, and a fixed
    product measurement strategy, one entry (a basis angle or a Povm) per
    measured qubit, from the first.  The simulation replaces ct1 by fresh
    uniform bits.  Returns the exact statistical distance between the
    two views, the average conditional min-entropy of c1 given the rest
    of the view, and the leftover-hash bound
    (1/2) * sqrt(2^(msg_len - min_entropy)) that the distance must obey.

    The work runs over seed classes, not seeds.  The real view is

        P(w0, w1, o, a, b) = 4^-k W^-2 sum_{r0,r1} pout[r0, r1, o]
                             [ct0[w0, r0] = a] [ct1[w1, r1] = b],

    with W seeds per side and ct_i[w, r] = m_i ^ pad_i(w, r), so w0 enters
    only through the row ct0[w0, :] (likewise w1).  Seeds with equal rows
    form a class; all seeds of a class pair have equal real entries, and
    equal simulated entries P(w0, w1, o, a) / 2^msg.  The class table T,
    the sum of P over the seeds of each class pair, is the exact
    distribution of (class0, class1, o, a, b); the real and simulated
    views both give the seeds the uniform conditional within their
    classes, so the distance over seeds is the distance over classes:

        sum_{w0,w1} |P - S| = sum_{c0,c1} |c0| |c1| |T/(|c0||c1|) - S_T/(|c0||c1|)|
                            = sum_{c0,c1} |T - S_T|.

    Likewise the side joint of (c1, w0, o, a) has equal columns
    p(., w0, o, a) for the |c0| seeds of a class, so the sum over seeds of
    the column maxima is the sum over classes of the maxima of the
    count-weighted class columns: the min-entropy is computed from the
    class joint unchanged.

    pad_i(w, .) is F2-linear in the message (a msg x k matrix T_w G over
    F2, T_w the Toeplitz matrix of w and G the generator), so a row is
    fixed by that matrix and a side has at most
    min(2^(n + msg - 1), 2^(k msg)) classes: 8 instead of 128 seeds at
    n = 7, k = 3, lam = 8.

    Each table is checked against the cell budget before it is
    allocated: the pad tables (the W x msg x n seed bits and their
    W x msg x 2^k Toeplitz product with the codewords), the outcome
    table pout (4^k x outcomes), and the class-sized tables held at once
    (the class table, its |real - sim| temporary, the side table and the
    contraction's intermediate).
    """
    m0, m1 = _messages(params, m0, m1)
    n, k, msg = params.n, params.k, params.msg_len
    strategy = adversary_strategy
    if strategy is None:
        strategy = []          # measures nothing: trivial outcome alphabet
    tables = [t for _, t in map(_outcome_table, strategy)]
    if len(tables) > n:
        raise ValueError("strategy lists more qubits than the instance holds")
    n_out = math.prod(t.shape[2] for t in tables)
    w_count = 2 ** _seed_len(n, msg)
    r_count, nc = 2 ** k, 2 ** msg
    _check_sim_cells("pad table", w_count * msg * max(r_count, n))
    _check_sim_cells("outcome table", r_count * r_count * n_out)

    code0, code1 = _code_pair(params, None, seed, "sim-code")
    cws0, cws1 = code0.codewords, code1.codewords      # row r encodes message r

    # pout[r0, r1, out]: outcome distribution given the two codewords
    pout = np.ones((r_count, r_count, 1))
    for i, t in enumerate(tables):
        qubit = t[cws0[:, i][:, None], cws1[:, i][None, :]]          # (r0, r1, o)
        pout = (pout[..., None] * qubit[:, :, None, :]).reshape(r_count, r_count, -1)

    rows0, cnt0 = _seed_classes(m0, cws0, msg)
    rows1, cnt1 = _seed_classes(m1, cws1, msg)
    c0, c1 = len(cnt0), len(cnt1)
    _check_sim_cells("class tables",
                     2 * c0 * c1 * n_out * nc * nc + r_count * (c0 + c1) * n_out * nc)

    # one-hot ciphertexts weighted by class size: hot[c, r, ct] = |c| where
    # the seeds of class c pad message r to ct
    hot0 = cnt0[:, None, None] * (rows0[..., None] == np.arange(nc))
    hot1 = cnt1[:, None, None] * (rows1[..., None] == np.arange(nc))
    # contract r1 first so no intermediate outgrows the class table
    real = np.einsum("rso,xra,ysb->xyoab", (0.25 ** k / (w_count * w_count)) * pout,
                     hot0, hot1, optimize=["einsum_path", (0, 2), (0, 1)])
    # side table for the min-entropy of c1: (c1 = codeword of r1, class0, out, ct0);
    # distinct messages have distinct codewords, so r1 indexes the c1 values
    side = np.einsum("rso,xra->sxoa", (0.25 ** k / w_count) * pout, hot0)

    diff = real - real.sum(axis=-1, keepdims=True) / nc
    exact_sd = 0.5 * float(np.abs(diff, out=diff).sum())
    del diff

    side_d = JointDistribution(("c1", "class0", "out", "ct0"), side)
    hmin = avg_conditional_min_entropy(side_d, ("c1",), ("class0", "out", "ct0"))
    lhl = 0.5 * math.sqrt(2.0 ** (msg - hmin))
    if exact_sd > lhl + 1e-12:
        raise InvariantViolationError(
            f"exact SD {exact_sd} exceeds the leftover-hash bound {lhl}"
        )
    return SimulatorReport(exact_sd=exact_sd, min_entropy_c1=hmin, lhl_bound=lhl)
