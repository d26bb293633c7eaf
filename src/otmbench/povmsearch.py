"""Certified numerical bounds on two-bit leakage from one measured qubit.

For the four-state encoding in qrac, three leakage figures matter: the
larger of the two bits' collision MI with the measurement outcome
("greater"), their sum ("total"), and the larger conditional collision MI
given the other bit ("conditional").  Each, for a POVM {M_i}, reduces to
log-of-sum expressions in the per-element functionals

    F(M) = sum_j Tr[M V_j]^2 / Tr[M W_j]

with fixed state matrices V_j, W_j.  Every F is quadratic-over-linear,
hence convex in M wherever its denominators are positive, and positively
homogeneous of degree 1, which buys the two certification devices used
here:

* Cell corner corrections: over a box of matrix entries, a convex F is
  maximized at a vertex, so evaluating the 8 corner perturbations of a
  grid cell upper-bounds every POVM inside the cell.  This drives the
  progressive coarse-to-fine net search over two-outcome POVMs.  A
  cell's coordinates are separable, so each net level is built per axis:
  its mask is broadcast from the a, b and c tables, and each cell keeps
  its ranks among its axes' corner values.  Adjacent cells share corners,
  about four cells to a distinct corner, so the net bounds each level in
  blocks of cells and evaluates each block's distinct corner triples,
  found from those ranks, once, with the same bits as evaluating every
  corner.
* Exact all-POVM constants: sum_i F(M_i) = sum_i Tr[M_i] F(M_i/Tr[M_i])
  <= 2K for any number of elements, with K the maximum of F on the pure
  states, which five polynomial identities give exactly (_Quantity).  The
  bound holds for every POVM, and search_bounds reports it as
  corrected_bound.

Measurements with complex entries never help: the states are real, so
the imaginary part of an element drops out of every trace above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import itertools
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from .collinfo import JointDistribution, collision_mi, conditional_collision_mi
from .errors import InvariantViolationError, ResourceLimitError
from .qrac import density_matrix, measure_prob, qrac_encode

__all__ = [
    "QUANTITIES",
    "REFERENCE_SETS",
    "Povm",
    "PovmInfo",
    "BoundReport",
    "eval_povm_info",
    "pair_info",
    "quantity_value",
    "value_from_info",
    "corner_corrected_value",
    "search_bounds",
]

# measurement bases every search evaluates exactly: computational,
# intermediate (halfway), and conjugate
DISTINGUISHED_ANGLES = (0.0, math.pi / 8, math.pi / 4)

# Two constant sets these bounds are routinely compared against; a report
# flags, per quantity, which sets its certified bound stays within.
REFERENCE_SETS = {
    "0.59/0.59/0.65": {"greater": 0.59, "conditional": 0.59, "total": 0.65},
    "0.58/0.58/0.67": {"greater": 0.58, "conditional": 0.58, "total": 0.67},
}

_PSD_TOL = 1e-10
_DEN_FLOOR = 1e-9   # corner denominators below this trigger the crude bound
_DEN_ZERO = 1e-12   # raw terms with denominators below this contribute 0


def _coeff(mat: np.ndarray) -> np.ndarray:
    # Tr[M rho] for symmetric real M=(a,b;b,c) is a*r00 + 2b*r01 + c*r11,
    # so states enter evaluation only through this 3-vector.
    return np.array([mat[0, 0], 2.0 * mat[0, 1], mat[1, 1]])


def _lam_extremes(mat: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(mat)
    return float(w[0]), float(w[-1])


class _Family(NamedTuple):
    """One F functional: groups of numerator states over a shared denominator."""

    cols: tuple          # per group, C-contiguous (3, 2) array: numerator rows as columns
    den_vecs: tuple      # per group, (3,) denominator coefficient vector
    flat: tuple          # per group, its two numerator rows and its denominator row as 9 floats
    crude: float         # sum_j lam_max(V_j)^2 / lam_min(W_group) over all numerators


def _make_family(groups) -> _Family:
    """The family of these (numerator states, denominator state) groups;
    ValueError, before anything is built, for no groups or for a group
    whose numerator does not hold exactly two states (_eval_family squares
    two columns and starts from the first group's term)."""
    groups = list(groups)
    if not groups:
        raise ValueError("a family takes at least one group")
    for nums, _ in groups:
        if len(nums) != 2:
            raise ValueError(f"a family group takes 2 numerator states, got {len(nums)}")
    cols, den_vecs, flat, crude = [], [], [], 0.0
    for nums, den in groups:
        num_rows = np.stack([_coeff(v) for v in nums])
        cols.append(np.ascontiguousarray(num_rows.T))
        den_vecs.append(_coeff(den))
        flat.append(tuple(num_rows.ravel().tolist() + den_vecs[-1].tolist()))
        lmin = _lam_extremes(den)[0]
        crude += sum(_lam_extremes(v)[1] ** 2 for v in nums) / lmin
    return _Family(tuple(cols), tuple(den_vecs), tuple(flat), crude)


def _ensemble_families():
    rho = {xy: density_matrix(qrac_encode(*xy)) for xy in itertools.product((0, 1), repeat=2)}
    bar0 = {x: (rho[(x, 0)] + rho[(x, 1)]) / 2 for x in (0, 1)}   # avg over b1
    bar1 = {y: (rho[(0, y)] + rho[(1, y)]) / 2 for y in (0, 1)}   # avg over b0
    eye = np.eye(2)
    f0 = _make_family([((bar0[0], bar0[1]), eye)])
    f1 = _make_family([((bar1[0], bar1[1]), eye)])
    g0 = _make_family([((rho[(0, y)], rho[(1, y)]), bar1[y]) for y in (0, 1)])
    g1 = _make_family([((rho[(x, 0)], rho[(x, 1)]), bar0[x]) for x in (0, 1)])
    return f0, f1, g0, g1


_FAM_F0, _FAM_F1, _FAM_G0, _FAM_G1 = _ensemble_families()


class _Quantity(NamedTuple):
    """How one leakage quantity is read from each figure that gives it.

    bound is the least double at or above the quantity's maximum over all
    POVMs, of any element count.  from_logs takes the log2 sums la, lb of
    the two families over one POVM and their larger one; from_figures
    takes the exact figures ic_b0, ic_b1, cond_b0, cond_b1.  Each works on
    floats and on numpy columns alike.

    Each family sum is at most 2K, with K the maximum of its F on the pure
    states (1, t)/sqrt(1 + t^2).  There F = (1/(1 + t^2)) sum_g N_g/D_g,
    each D_g positive (its state is positive definite), so K - F has the
    sign of p(t) = K (1 + t^2) prod_g D_g - sum_g N_g prod_{h != g} D_h,
    which factors over Q (the sqrt(2) of the states cancels) as

        f0 at K = 3/4:        t^2
        f1 at K = 3/4:        (1/4) (t - 1)^2 (t + 1)^2
        f0 + f1 at K = 5/4:   0, so it is 5/4 on every pure state
        g0 at K = 3:          (1/2) t^2 (t^2 + 1)
        g1 at K = 3:          (1/8) (t - 1)^2 (t + 1)^2 (t^2 + 1)

    each >= 0 for real t, with a t^(2G+2) coefficient >= 0 for the state
    (0, 1); the distinguished bases attain each K.  So greater <=
    log2(2 * 3/4) = log2(3/2), conditional <= log2(2 * 3) - 2 = log2(3/2),
    and total = log2(S0 S1) with S0 + S1 <= 2 * 5/4, so by AM-GM S0 S1 <=
    (5/4)^2 and total <= 2 log2(5/4).  The tests build each p from the
    exact states and prove each literal by a Fraction enclosure of log2.
    """

    bound: float
    fams: tuple           # the two families whose per-POVM sums give the value
    from_logs: Callable
    from_figures: Callable


_QUANTITY = {
    "greater": _Quantity(0.5849625007211562,         # log2(3/2), rounded up
                         (_FAM_F0, _FAM_F1), lambda la, lb, top: top,
                         lambda ic0, ic1, c0, c1: np.maximum(ic0, ic1)),
    "total": _Quantity(0.6438561897747247,           # 2 log2(5/4), rounded up
                       (_FAM_F0, _FAM_F1), lambda la, lb, top: la + lb,
                       lambda ic0, ic1, c0, c1: ic0 + ic1),
    "conditional": _Quantity(0.5849625007211562,     # log2(3/2), rounded up
                             (_FAM_G0, _FAM_G1), lambda la, lb, top: top - 2.0,
                             lambda ic0, ic1, c0, c1: np.maximum(c0, c1)),
}

QUANTITIES = tuple(_QUANTITY)


def _quantity(name) -> _Quantity:
    """The record of the quantity called name; ValueError for any other
    name, an unhashable one included."""
    try:
        return _QUANTITY[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown quantity {name!r}; expected one of {QUANTITIES}") from None


def _eval_family(fam: _Family, pts: np.ndarray) -> tuple:
    """F at matrix coordinate points (..., 3), and the least group denominator.

    Terms whose denominator is at most _DEN_ZERO contribute 0, so
    zero-trace elements give 0.

    On two or more rows this gives the same bits as the textbook form, which
    starts total at 0 and den_min at inf and adds, per group,
    np.square(pts @ nums.T).sum(axis=-1) / d, with nums.T the strided
    transposed view of the (2, 3) numerator rows.  numpy reduces a length-2
    axis as x0 + x1, the sum written out here.  Each term is nonnegative,
    so 0.0 + t == t, and min(inf, d) == d: starting from the first group's
    term and denominator changes no bit.  cols holds the numbers of nums.T
    in C order, and numpy's product of an array of two or more rows with
    either gives equal bits; a one-row product may round differently, so
    every caller passes at least 8 rows.
    test_eval_family_matches_the_textbook_bits holds both outputs to the
    oracle's bytes.
    """
    total = den_min = None
    for cols, den in zip(fam.cols, fam.den_vecs):
        d = pts @ den
        x = pts @ cols
        num = x[..., 0] * x[..., 0] + x[..., 1] * x[..., 1]
        keep = d > _DEN_ZERO   # the other terms divide by 1.0 and are dropped
        term = np.where(keep, num / np.where(keep, d, 1.0), 0.0)
        if total is None:
            total, den_min = term, d
        else:
            total, den_min = total + term, np.minimum(den_min, d)
    return total, den_min


def _box_bound(fam: _Family, vals: np.ndarray, den: np.ndarray, trace_top) -> np.ndarray:
    """Certified bound of F over each box, from F and the least group
    denominator at its 8 corners, both (8, N).

    Where every corner denominator stays above _DEN_FLOOR, the (linear)
    denominators are positive over the whole box, F is convex there, and
    the corner maximum is a true box bound.  Otherwise fall back to the
    crude bound F(M) <= sum_j lam_max(V_j)^2/lam_min(W_j) * Tr M, with
    trace_top >= 0 bounding Tr M over the box.
    """
    return np.where(den.min(axis=0) < _DEN_FLOOR, fam.crude * trace_top, vals.max(axis=0))


# corner k of a cell sits at base + eps * _CORNERS[k]: bit 2 of k is the
# a axis's corner, bit 1 the b axis's, bit 0 the c axis's
_CORNERS = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
_IDENTITY = np.array([1.0, 0.0, 1.0])   # I as a coordinate row (a, b, c)


def _corner_points(axes: tuple, ranks: np.ndarray) -> tuple:
    """The distinct corner triples (M, 3) of these cells of a level, and
    the (8, N) map that sends corner k of cell n to its row.

    ranks (N, 3) holds each cell's base ranks r on the level's axes
    (_Level).  On each axis a corner holds x + 0.0, which is x, ranked r,
    or x + eps, ranked up[r] (_Axis): the axis's values hold both, made
    by the add that makes the corner.  Ranks are equal exactly when their
    values are equal floats, and equal corner floats are equal bits (no
    corner value is -0.0: a zero sum of x and +0.0 or eps > 0 is +0.0),
    so two corners share the key r_a | r_b | r_c, each rank in its axis's
    bits, exactly when their triples are bitwise equal, and each row of
    points, the values its key's ranks name, is its corners' triple.  One
    sort of key << s | i, with i < 2^s the corner's place in the
    (2, 2, 2, N) key grid, groups equal keys, each group sorted by place;
    group g is row g of points.  The key bits and s fit in 63 bits:
    _net_level refuses a level where they could not, N being at most
    _NET_BLOCK.
    """
    n = ranks.shape[0]
    m = 8 * n
    # widened once: numpy casts an int32 index array on each gather, and
    # the keys need int64
    ranks = ranks.astype(np.intp)
    keys = 0
    for j, ax in enumerate(axes):
        r = ranks[:, j]
        # axis j of the (2, 2, 2, n) key grid is that axis's corner bit,
        # the order of _CORNERS
        ends = np.stack([r, ax.up[r]]).reshape((1,) * j + (2,) + (1,) * (2 - j) + (n,))
        keys = keys << ax.bits | ends
    shift = (m - 1).bit_length()
    keys = keys.reshape(-1) << shift
    keys |= np.arange(m)
    keys.sort()
    where = keys & ((1 << shift) - 1)
    keys >>= shift
    first = np.empty(m, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    ids = np.cumsum(first)
    ids -= 1
    index = np.empty(m, dtype=np.intp)
    index[where] = ids
    keys = keys[first]
    points = np.empty((keys.size, 3))
    for j in (2, 1, 0):
        points[:, j] = axes[j].values[keys & ((1 << axes[j].bits) - 1)]
        keys >>= axes[j].bits
    return points, index.reshape(8, n)


def _combine(quantity: str, sum_a, sum_b):
    """Quantity value from the two family sums (arrays or numpy scalars)."""
    with np.errstate(divide="ignore"):
        la, lb = np.log2(sum_a), np.log2(sum_b)
    return _quantity(quantity).from_logs(la, lb, np.maximum(la, lb))


def _eigmin_arr(pts: np.ndarray) -> np.ndarray:
    a, b, c = pts[..., 0], pts[..., 1], pts[..., 2]
    return 0.5 * (a + c - np.sqrt((a - c) ** 2 + 4.0 * b * b))


def _checked_rows(rows: tuple) -> tuple:
    """The rows (a, b, c) of a valid POVM's elements, or InvariantViolationError.

    Closed form with a _PSD_TOL slack: each element's least eigenvalue
    (the _eigmin_arr formula) and each entry of the sum against the
    identity.  The comparisons are written so that a nan fails them.
    """
    if not 1 <= len(rows) <= 4:
        raise InvariantViolationError(f"need 1..4 elements, got {len(rows)}")
    sa = sb = sc = 0.0
    for a, b, c in rows:
        d = a - c
        if not 0.5 * (a + c - math.sqrt(d * d + 4.0 * b * b)) >= -_PSD_TOL:
            raise InvariantViolationError(f"element not PSD: {[[a, b], [b, c]]}")
        sa += a
        sb += b
        sc += c
    if not (abs(sa - 1.0) <= _PSD_TOL and abs(sb) <= _PSD_TOL and abs(sc - 1.0) <= _PSD_TOL):
        raise InvariantViolationError("elements do not sum to the identity")
    return rows


class Povm:
    """Up to four real symmetric 2x2 elements summing to the identity.

    Holds element [[a, b], [b, c]] as its coordinate row (a, b, c) in
    plain floats; elements and as_lists() are built from those rows.
    """

    __slots__ = ("_rows",)

    def __init__(self, elements):
        rows = []
        for m in elements:
            m = np.asarray(m, dtype=float)
            if m.shape != (2, 2) or not abs(m[0, 1] - m[1, 0]) <= 1e-12:
                raise InvariantViolationError("elements must be symmetric 2x2")
            rows.append((float(m[0, 0]), float(m[0, 1]), float(m[1, 1])))
        self._rows = _checked_rows(tuple(rows))

    @staticmethod
    def from_coords(coords) -> "Povm":
        try:
            rows = tuple((float(a), float(b), float(c)) for a, b, c in coords)
        except (TypeError, ValueError):
            raise InvariantViolationError(
                "coordinates must be rows of three numbers (a, b, c)") from None
        povm = object.__new__(Povm)
        povm._rows = _checked_rows(rows)
        return povm

    @property
    def elements(self) -> tuple:
        return tuple(np.array([[a, b], [b, c]]) for a, b, c in self._rows)

    def as_lists(self) -> list:
        return [[[a, b], [b, c]] for a, b, c in self._rows]


class PovmInfo(NamedTuple):
    ic_b0: float
    ic_b1: float
    ic_b0_given_b1: float
    ic_b1_given_b0: float


def eval_povm_info(povm: Povm) -> PovmInfo:
    """Exact per-bit collision MI figures for one POVM.

    Builds the full joint distribution of (b0, b1, outcome) under uniform
    independent bits and hands it to the entropy code; the fast search
    path has closed-form shortcuts, and tests hold the two routes to each
    other.
    """
    return pair_info(_outcome_table(povm)[1])


def _outcome_table(entry) -> tuple:
    """One measurement, a Povm or a basis angle, as (label, t) with
    t[x, y, o] = P(outcome o | bits (x, y)).  A Povm is its own label and
    gives Tr[M_o rho_xy]; an angle is labelled by itself as a float and
    gives measure_prob's cos^2.  The formulas agree up to rounding; a basis
    keeps its own so its figures keep their last bits (through element
    rows the m = 4 sweep's worst greater would move by 1e-15)."""
    if isinstance(entry, Povm):
        els = entry.elements
        t = np.empty((2, 2, len(els)))
        for x, y in itertools.product((0, 1), repeat=2):
            rho = density_matrix(qrac_encode(x, y))
            for o, m in enumerate(els):
                t[x, y, o] = float(np.trace(m @ rho))
        return entry, t
    phi = float(entry)
    t = np.empty((2, 2, 2))
    for x, y in itertools.product((0, 1), repeat=2):
        t[x, y] = measure_prob(qrac_encode(x, y), phi)
    return phi, t


def pair_info(table) -> PovmInfo:
    """Exact per-bit collision MI figures of one measured pair, from its
    outcome table table[x, y, o] = P(outcome o | bits (x, y)) under uniform
    independent bits."""
    d = JointDistribution(("b0", "b1", "out"), 0.25 * np.asarray(table, dtype=float))
    return PovmInfo(
        ic_b0=collision_mi(d, ("b0",), ("out",)),
        ic_b1=collision_mi(d, ("b1",), ("out",)),
        ic_b0_given_b1=conditional_collision_mi(d, ("b0",), ("out",), ("b1",)),
        ic_b1_given_b0=conditional_collision_mi(d, ("b1",), ("out",), ("b0",)),
    )


def value_from_info(info: PovmInfo, quantity: str) -> float:
    return float(_quantity(quantity).from_figures(*info))


def _family_sum(fam: _Family, rows) -> float:
    """sum over the rows (a, b, c) of F, in plain floats: _eval_family(...)[0].sum()
    up to rounding, dropping the same terms at or below _DEN_ZERO.

    The two numerator terms are written out: summed from 0.0 they would be
    0.0 + t0^2 + t1^2, and 0.0 + t0^2 is t0^2 exactly (a square is never
    -0.0), so the bits are the looped form's."""
    total = 0.0
    for a, b, c in rows:
        for n00, n01, n02, n10, n11, n12, d0, d1, d2 in fam.flat:
            den = a * d0 + b * d1 + c * d2
            if den > _DEN_ZERO:
                t0 = a * n00 + b * n01 + c * n02
                t1 = a * n10 + b * n11 + c * n12
                total += (t0 * t0 + t1 * t1) / den
    return total


def _point_value(quantity: str, rows) -> float:
    """The quantity at the POVM with these element rows (a, b, c).

    A family sum over a valid POVM is positive (the elements' denominators
    add up to a positive trace), so its log2 exists.
    """
    quant = _quantity(quantity)
    fam_a, fam_b = quant.fams
    la, lb = math.log2(_family_sum(fam_a, rows)), math.log2(_family_sum(fam_b, rows))
    return quant.from_logs(la, lb, max(la, lb))


def _basis_rows(phi: float) -> tuple:
    """Element rows (a, b, c) of the projective measurement in the basis at
    angle phi."""
    c, s = math.cos(phi), math.sin(phi)
    return ((c * c, c * s, s * s), (s * s, -c * s, c * c))


def quantity_value(povm: Povm, quantity: str) -> float:
    """Fast-path value via the family functionals (matches eval_povm_info)."""
    return _point_value(quantity, povm._rows)


# ---------------------------------------------------------------------------
# two-outcome progressive net

# cells one net array may hold: the coarse net, the flat count's (a, c)
# table and each refinement level are refused beyond it before allocating.
# Under tracemalloc a level peaks at 2 bytes a cell (coarse cell or
# refinement child) while it is masked, and then at 52 bytes a kept cell:
# np.nonzero's four int64 indices, the int32 ranks and one gathered int64
# column.  The (a, c) table peaks at 24 bytes a cell: at most 1.04 GB,
# every cell kept
_MAX_NET_CELLS = 20_000_000

# cells bounded together: a net level is bounded block by block, so its
# corner temporaries stay under a MiB at any level size, and the deadline
# is checked before each block
_NET_BLOCK = 2048


def _axis_counts(eps: float) -> tuple:
    """Cells n_a on the a (and c) axis and 2 n_b on the b axis of the eps-net."""
    return int(math.ceil(1.0 / eps - 1e-9)), int(math.ceil(0.5 / eps - 1e-9))


def _bmin(b: np.ndarray, eps: float) -> np.ndarray:
    """Smallest |b| over each cell [b, b + eps]."""
    return np.where((b <= 0.0) & (0.0 <= b + eps), 0.0,
                    np.minimum(np.abs(b), np.abs(b + eps)))


def _bmin2_limit(a, c, eps: float):
    """Largest bmin^2 a cell at (a, c) can take and still hold a POVM {M, I - M}:
    both M's box and the complement's, which mirrors b, need bmin^2 at most
    the product of their diagonal maxima."""
    return np.minimum((a + eps) * (c + eps) + 1e-12,
                      np.maximum(1.0 - a, 0.0) * np.maximum(1.0 - c, 0.0) + 1e-12)


def _pair_cell_mask(a, b, c, eps: float) -> np.ndarray:
    """Which cells at bases (a, b, c) can hold a two-outcome POVM; a, b and c
    broadcast against each other, and each cell's answer is a function of
    its own three values."""
    bmin = _bmin(b, eps)
    return (bmin * bmin <= _bmin2_limit(a, c, eps)) & ((a <= 1.0 + 1e-12) & (c <= 1.0 + 1e-12))


class _Axis(NamedTuple):
    """One axis of a net level: the sorted distinct values x + 0.0 and
    x + eps over its cells' base values x; up, whose entry at the rank of
    a base value x is the rank of x + eps; and the bits that hold a rank."""

    values: np.ndarray
    up: np.ndarray
    bits: int


class _Level(NamedTuple):
    """The cells of a net level: its a, b and c axes, and each cell's base
    ranks on them (K, 3), in the order the cells are built."""

    axes: tuple
    ranks: np.ndarray

    def bases(self, rows=slice(None)) -> np.ndarray:
        """The bases (a, b, c) of these cells, as rows."""
        return np.stack([ax.values[self.ranks[rows, j]] for j, ax in enumerate(self.axes)],
                        axis=-1)


def _net_level(origins: np.ndarray, eps: float, lo: tuple, hi: tuple) -> _Level:
    """The cells at bases origin + eps * o, for each origin row and each
    integer triple o in the box [lo, hi), that can hold a two-outcome POVM,
    in origin-major lexicographic order.  No order can reach a report:
    each figure is a function of its cell's own corner triples
    (_pair_cells), cells_visited is a count, and the incumbent's min
    ignores the order of its offers.

    The level is built per axis, with the bits of building every cell's
    row and masking the rows (the tests hold it to that dense build).
    Coordinate j of a base is origins[p, j] + eps * o_j, so each axis's
    P x s_j table, made by that multiply and add, holds every base value
    of the axis.  _pair_cell_mask is elementwise, so evaluated on the a,
    b and c tables broadcast to P x s_a x s_b x s_c it makes, for each
    cell, the float operations it makes on the cell's row, and np.nonzero
    lists the kept cells in C order, the dense build's order.  The values
    of an axis are its table's values and each plus eps, the add that
    makes a corner; a cell keeps its base's rank among them on each axis,
    and _Level.bases reads the bases back, bit for bit.

    A level of more than _MAX_NET_CELLS cells before the mask is refused
    before anything is allocated, and one whose corner keys (_corner_points)
    could pass 63 bits before its cells are listed.  For eps_coarse <= 1
    that refusal never comes.  An axis holds at most twice its distinct
    base values, and an origin spreads its distinct values on an axis into
    at most s, so a level of step eps = eps_coarse / S, S the product of
    the steps so far, holds at most 2 n S values on an axis of n coarse
    cells: under 4 / eps on the a and c axes and 6 / eps on b.  Every step
    is past eps_fine / 2 and the flat-cell guard keeps 1 / eps_fine under
    4473, so each axis holds under 53 676 < 2^16 values, 48 key bits in
    all, and a block's places take 14 of the other 15.
    """
    cells = origins.shape[0] * math.prod(h - l for l, h in zip(lo, hi))
    if cells > _MAX_NET_CELLS:
        raise ResourceLimitError(
            f"net level at step {eps} has {cells} cells, past {_MAX_NET_CELLS}")
    tables = [origins[:, j, None] + eps * np.arange(l, h) for j, (l, h) in enumerate(zip(lo, hi))]
    axes = []
    for t in tables:
        values = np.unique(np.concatenate([t, t + eps], axis=None))
        axes.append(_Axis(values, np.searchsorted(values, values + eps),
                          (values.size - 1).bit_length()))
    bits, room = sum(ax.bits for ax in axes), 63 - (8 * _NET_BLOCK - 1).bit_length()
    if bits > room:
        raise ResourceLimitError(
            f"net level at step {eps} has {bits}-bit corner keys, past {room}")
    a, b, c = tables
    kept = np.nonzero(_pair_cell_mask(a[:, :, None, None], b[:, None, :, None],
                                      c[:, None, None, :], eps))
    ranks = np.empty((kept[0].size, 3), dtype=np.int32)   # an axis holds under 2^16 values
    for j, (t, ax) in enumerate(zip(tables, axes)):
        ranks[:, j] = np.searchsorted(ax.values, t)[kept[0], kept[1 + j]]
    return _Level(tuple(axes), ranks)


def _count_flat_cells(eps: float) -> int:
    """The cells of the eps-net's coarse level, counted in O(eps^-2).

    For fixed (a, c), _pair_cell_mask keeps the b whose bmin^2 is at most
    _bmin2_limit (a, c < 1 always holds on the net axes).  Counting those
    among the sorted bmin^2 values makes the same float comparisons, so the
    count is exact.
    """
    n_a, n_b = _axis_counts(eps)
    a, bmin = eps * np.arange(n_a), _bmin(eps * np.arange(-n_b, n_b), eps)
    limit = _bmin2_limit(a[:, None], a[None, :], eps)
    return int(np.searchsorted(np.sort(bmin * bmin), limit, side="right").sum())


def _pair_cells(quantity: str, bases: np.ndarray, eps: float, points: np.ndarray,
                index: np.ndarray) -> tuple:
    """Corrected bound of each two-outcome cell, and raw values at the points.

    The cell at base (a, b, c) holds every POVM {M, I - M} whose M has
    entries in [base, base + eps].  Corner k of cell n is the row
    points[index[k, n]] (points (M, 3), index (8, N)): the deduplicated
    corners of _corner_points, or all 8N corners with an identity map.
    Returns the certified bound over each cell (N,) and the quantity at
    each point's pair {point, I - point} (M,), -inf where a pair is not
    PSD.  The corners are exactly the fine grid points of the cell, its
    upper faces included.

    Evaluating each distinct triple once gives the same bits as evaluating
    every corner.  Every per-corner figure (F and the least denominator of
    each family at the corner and at its complement, the PSD test, the raw
    value) is a function of that corner's exact triple alone: it is built
    from elementwise float operations and from products of the row with
    fixed vectors, and numpy computes such a product the same way for every
    row of an array of two or more rows (points holds at least one cell's
    8 corners, which are distinct: on the net's axes x + eps != x).  The
    points and their complements are evaluated as one stacked array for
    the same reason.  Corners with equal triples therefore get equal
    figures, gathering copies them, and the maxima and minima over each
    cell's 8 gathered corners are exact.  The row property is numpy's (a
    one-row product may round differently), so the tests hold both maps
    to the same bits.
    """
    m = points.shape[0]
    both = np.concatenate([points, _IDENTITY - points])   # the points, then their complements
    comp_index = index + m
    tops = (np.maximum(bases[:, 0] + bases[:, 2] + 2.0 * eps, 0.0),
            np.maximum(2.0 - bases[:, 0] - bases[:, 2], 0.0))
    fam_sums_corr = []
    fam_sums_raw = []
    for fam in _quantity(quantity).fams:
        vals, den = _eval_family(fam, both)
        fam_sums_corr.append(_box_bound(fam, vals[index], den[index], tops[0])
                             + _box_bound(fam, vals[comp_index], den[comp_index], tops[1]))
        fam_sums_raw.append(vals[:m] + vals[m:])
    corrected = _combine(quantity, fam_sums_corr[0], fam_sums_corr[1])
    psd = _eigmin_arr(both) >= -1e-12
    raw = np.where(psd[:m] & psd[m:], _combine(quantity, fam_sums_raw[0], fam_sums_raw[1]),
                   -np.inf)
    return corrected, raw


def corner_corrected_value(povm: Povm, eps: float, quantity: str) -> float:
    """Upper bound on the quantity over the two-outcome grid cell at this POVM.

    The cell is the net's: the first element's entries may each rise by
    up to eps, and the second element absorbs the difference.  At
    eps = 0, and for the one-element POVM, which has no free entry, this
    is quantity_value.  At eps > 0 three- and four-element POVMs are
    refused: no stage builds such cells, and corrected_bound covers every
    element count.  eps past 1 is refused too: a width-1 cell already
    spans every element entry, and wider corners overflow to nan.
    """
    _quantity(quantity)                  # a bad name is refused before eps
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    rows = povm._rows
    if eps == 0.0 or len(rows) == 1:
        return _point_value(quantity, rows)
    if len(rows) > 2:
        raise ValueError(f"cell bounds at eps > 0 take two-element POVMs, got {len(rows)} elements")
    base = np.array(rows[:1])
    corners = base + eps * _CORNERS
    return float(_pair_cells(quantity, base, eps, corners, np.arange(8)[:, None])[0][0])


def _refine_steps(eps_coarse: float, eps_fine: float) -> list:
    steps = []
    eps = eps_coarse
    while eps > eps_fine * (1 + 1e-9):
        ratio = eps / eps_fine
        if ratio <= 5.0 + 1e-9:
            s = max(2, int(round(ratio)))
        else:
            s = 2
        steps.append(s)
        eps = eps / s
    return steps


@dataclass(frozen=True)
class BoundReport:
    """Result of search_bounds.  corrected_bound is the quantity's exact
    all-POVM bound (_Quantity.bound), raised to raw_max where the point
    evaluator reads a few ulps above it; slice_bound is derived as a copy
    of it, and supports as its verdict against each of REFERENCE_SETS
    (within 1e-12).  slice_epsilon and slice_cells stay in the report at
    0: no slice is cut into cells.  A partial report (complete False)
    leaves frontier_bound inf (None in as_dict, so null in JSON) and
    flat_cells 0."""

    quantity: str
    raw_max: float
    corrected_bound: float
    argmax_povm: Povm
    net_epsilon: float
    refinement_levels: int
    slice_bound: float = field(init=False)
    slice_epsilon: float = field(default=0.0, init=False)
    frontier_bound: float
    cells_visited: int
    flat_cells: int
    slice_cells: int = field(default=0, init=False)
    supports: dict = field(init=False)
    complete: bool
    elapsed_s: float

    def __post_init__(self):
        if self.corrected_bound < self.raw_max:
            raise InvariantViolationError(
                f"corrected bound {self.corrected_bound} below raw max {self.raw_max}"
            )
        object.__setattr__(self, "slice_bound", self.corrected_bound)
        object.__setattr__(self, "supports", {
            label: self.corrected_bound <= thresholds[self.quantity] + 1e-12
            for label, thresholds in REFERENCE_SETS.items()
        })

    def as_dict(self) -> dict:
        # elapsed_s stays off the dict: serialized reports must be
        # byte-reproducible across runs, and wall time is not
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "elapsed_s"}
        if not math.isfinite(self.frontier_bound):
            d["frontier_bound"] = None
        d["argmax_povm"] = self.argmax_povm.as_lists()
        return d


def search_bounds(
    eps_coarse: float = 0.05,
    eps_fine: float = 0.005,
    quantity: str = "greater",
    time_budget: float | None = None,
) -> BoundReport:
    """Progressive net search plus the exact all-POVM bound.

    The coarse two-outcome pass corner-corrects every cell, discards
    cells that provably cannot beat the raw incumbent, and refines the
    survivors down to eps_fine (frontier_bound certifies the two-outcome
    family).  Every refinement level runs, even one left with no cell: it
    bounds nothing, so the incumbent is then the frontier.  The
    quantity's bound, proven for POVMs of every element count (_Quantity),
    is reported as corrected_bound, or raw_max where that reads higher.

    Raises ResourceLimitError with a partial report if the time budget
    runs out or a net level or the flat-cell table would pass its limit;
    the deadline is checked before each block of _NET_BLOCK cells of a net
    level and before the flat-cell count.  A partial report counts the
    cells of the blocks bounded.
    """
    _quantity(quantity)                  # a bad name is refused before the sizes
    # a normal float keeps 1/eps finite, so the cell counts below exist
    if not sys.float_info.min <= eps_fine <= eps_coarse + 1e-15 < math.inf:
        raise ValueError(f"need {sys.float_info.min} <= eps_fine <= eps_coarse < inf")
    if time_budget is not None and math.isnan(time_budget):
        raise ValueError("time_budget must be a number of seconds, not nan")
    start = time.monotonic()
    deadline = math.inf if time_budget is None else start + time_budget

    def check_deadline():
        if time.monotonic() > deadline:
            raise ResourceLimitError(f"time budget {time_budget}s exceeded during {quantity} search")

    # The incumbent is best = (-value, rows): min over such pairs keeps the
    # larger value and, on a tie, the lexicographically least rows, whatever
    # the order of offers.  It starts from the distinguished exact bases.
    # The net's corners quantize the intermediate basis away (its
    # off-diagonal is irrational), so without these seeds raw_max for
    # "total" would sit a few thousandths below the true attained value;
    # the seeds are ordinary POVMs, so their values are honestly achieved.
    best = min((-_point_value(quantity, rows), rows)
               for rows in map(_basis_rows, DISTINGUISHED_ANGLES))

    visited, level, eps, flat_cells = 0, 0, eps_coarse, 0

    def make_report(complete, frontier):
        # the net ranks corners by the batched kernel, whose last bits may
        # differ from the point evaluator's; raw_max is what argmax_povm
        # attains by quantity_value, and pruning keeps -best[0].  That
        # evaluator reads a few ulps above the exact maximum, so the bound
        # is raised to it; the proof rests on _Quantity.bound alone
        raw_max = _point_value(quantity, best[1])
        return BoundReport(
            quantity=quantity,
            raw_max=raw_max,
            corrected_bound=max(_QUANTITY[quantity].bound, raw_max),
            argmax_povm=Povm.from_coords(best[1]),
            net_epsilon=eps,
            refinement_levels=level,
            frontier_bound=frontier,
            cells_visited=visited,
            flat_cells=flat_cells,
            complete=complete,
            elapsed_s=time.monotonic() - start,
        )

    try:
        fine_a = _axis_counts(eps_fine)[0]
        if fine_a * fine_a > _MAX_NET_CELLS:
            raise ResourceLimitError(
                f"flat-cell (a, c) table of {fine_a * fine_a} cells exceeds {_MAX_NET_CELLS}")
        n_a, n_b = _axis_counts(eps)
        net = _net_level(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
        steps = _refine_steps(eps_coarse, eps_fine)
        while True:
            corr = np.empty(net.ranks.shape[0])
            for lo in range(0, corr.size, _NET_BLOCK):
                check_deadline()
                rows = slice(lo, lo + _NET_BLOCK)
                block = net.bases(rows)
                points, index = _corner_points(net.axes, net.ranks[rows])
                corr[rows], raw = _pair_cells(quantity, block, eps, points, index)
                # a block below the level's maximum offers only losers, and
                # min keeps the same winner whatever the order of offers
                rmax = float(raw.max())
                if rmax > -math.inf and rmax >= -best[0]:
                    for a, b, c in points[raw == rmax].tolist():
                        best = min(best, (-rmax, ((a, b, c), (1.0 - a, 0.0 - b, 1.0 - c))))
                visited += block.shape[0]
            frontier = max(-best[0], float(corr.max(initial=-np.inf)))
            if level == len(steps):
                break
            s = steps[level]
            level += 1
            eps = eps / s
            net = _net_level(net.bases(corr > -best[0]), eps, (0, 0, 0), (s, s, s))
        check_deadline()
        flat_cells = _count_flat_cells(eps_fine)
    except ResourceLimitError as err:
        raise ResourceLimitError(str(err), partial=make_report(False, math.inf)) from None
    return make_report(True, frontier)
