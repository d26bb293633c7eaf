"""Reference implementations the tests hold the library to, and the
inputs the tests feed it.

Each oracle is written from the definition of what it checks and calls
no function of that module: the light-cone oracles read only a grid's
(D, side, ell, depth) and a partition's r, the Toeplitz matrix only an
extractor's seed bits and sizes, the nearest message only a code's
generator, the rank-one lower bounds score every POVM through collinfo
on its exact outcome table, the distribution writers and the
conditional collision entropy only a joint's names and table, the family
kernel only a family's float rows, the exact slice polynomials only the
encoding's angles in eighths of pi, and the report reader only the json
module.  The protocol's draws are the one
exception: its instance and extractor are numpy's own per-seed draws put
through the public checked constructors, the reference that otm_prep's
coin-bit kernel is held to.  The honest read draws one scalar per qubit
against qrac's measure_prob: it is the reference for the reads, which
gather qrac's readout table instead.

The test inputs are seeded random joints, basis projectors, the listing
of two-outcome grid POVMs the corner-bound checks sample cells from, and
malformed distribution files.
"""

from fractions import Fraction
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from otmbench.collinfo import JointDistribution, collision_mi, conditional_collision_mi
from otmbench.errors import _check_int
from otmbench.f2codes import random_code
from otmbench.protocol import Extractor, OtrmInstance, _seed_len
from otmbench.qrac import density_matrix, measure_prob, qrac_encode
from otmbench.seeds import derive_seed

# ---------------------------------------------------------------------------
# light cones on a D-dimensional grid, cells indexed in C order


def coords(grid, index: int) -> tuple:
    """Coordinates of grid cell index, the first axis most significant."""
    out = []
    for _ in range(grid.D):
        index, c = divmod(index, grid.side)
        out.append(c)
    return tuple(reversed(out))


def box_cells(grid, box) -> np.ndarray:
    """Sorted grid indices of an inclusive per-axis box (empty if any lo > hi)."""
    cells = np.zeros(1, dtype=np.int64)
    for lo, hi in box:
        cells = (cells[:, None] * grid.side + np.arange(lo, hi + 1)).ravel()
    return cells


def outer_box(part, j: int) -> list:
    """Per-axis (lo, hi) inclusive bounds of outer cube j: the cubes have side
    2r + 2 ell^d, tile every axis from 0, and are numbered in C order."""
    grid = part.grid
    s = 2 * part.r + 2 * grid.ell**grid.depth
    per_axis = grid.side // s
    box = []
    for _ in range(grid.D):
        j, p = divmod(j, per_axis)
        box.append((p * s, p * s + s - 1))
    return box[::-1]


def inner_box(part, j: int) -> list:
    """Outer cube j less a shell of width ell^d on every face."""
    w = part.grid.ell**part.grid.depth
    return [(lo + w, hi - w) for lo, hi in outer_box(part, j)]


def inner_cells(part, j: int) -> np.ndarray:
    return box_cells(part.grid, inner_box(part, j))


def reverse_lightcone(grid, qubit: int) -> np.ndarray:
    """Every cell within L-infinity distance ell^d of the qubit, clipped at
    the grid boundary, sorted."""
    R = grid.ell**grid.depth
    box = [(max(0, c - R), min(grid.side - 1, c + R)) for c in coords(grid, qubit)]
    return box_cells(grid, box)


class Certificate(NamedTuple):
    passed: bool
    cubes_checked: int
    # (cube index, inner qubit, cell its cone reaches outside the claim)
    counterexample: tuple | None = None


def _per_qubit_certificate(part, outer_shrink: int = 0) -> Certificate:
    """Lists every inner qubit's reverse cone and marks each cell against its
    cube's claim, the outer cube shrunk by outer_shrink on every face."""
    grid = part.grid
    cubes = (grid.side // (2 * part.r + 2 * grid.ell**grid.depth)) ** grid.D
    in_claim = np.zeros(grid.side**grid.D, dtype=bool)
    for j in range(cubes):
        claim = [(lo + outer_shrink, hi - outer_shrink) for lo, hi in outer_box(part, j)]
        claim_cells = box_cells(grid, claim)
        in_claim[claim_cells] = True
        for qubit in inner_cells(part, j).tolist():
            cone = reverse_lightcone(grid, qubit)
            escaped = cone[~in_claim[cone]]
            if escaped.size:
                return Certificate(False, j + 1, (j, qubit, int(escaped[0])))
        in_claim[claim_cells] = False
    return Certificate(True, cubes)


# ---------------------------------------------------------------------------
# the protocol's draws, one numpy generator per seed


def otrm_prep(params, seed: int = 0, codes=None) -> OtrmInstance:
    """The random-string instance of root seed: fresh codes from its
    "code0" and "code1" streams unless a pair is given, and the secrets
    r0, r1 from two successive integers(0, 2, size=k, dtype=np.uint8)
    calls on default_rng of its "messages" stream."""
    if codes is None:
        codes = [random_code(params.n, params.k, derive_seed(seed, f"code{i}")) for i in (0, 1)]
    rng = np.random.default_rng(derive_seed(seed, "messages"))
    r0, r1 = (rng.integers(0, 2, size=params.k, dtype=np.uint8) for _ in range(2))
    return OtrmInstance(*codes, r0, r1)


def make_extractor(input_len: int, output_len: int, seed: int) -> Extractor:
    """The Toeplitz extractor whose seed bits are one default_rng(seed)
    .integers(0, 2, dtype=np.uint8) draw.  seed must be an integer; it and
    both sizes are checked before anything is drawn."""
    want = _seed_len(input_len, output_len)
    rng = np.random.default_rng(_check_int("seed", seed))
    return Extractor(rng.integers(0, 2, size=want, dtype=np.uint8), input_len, output_len)


def read_word(angles, alpha: int, rng) -> list:
    """The honest read of the qubits at these angles in bit alpha's basis
    (angle 0 for b0, pi/4 for b1), one qubit at a time: one scalar draw u
    of rng per qubit, in order, and outcome 1 when u reaches measure_prob's
    P(outcome 0)."""
    phi = (0.0, math.pi / 4)[alpha]
    return [int(rng.random() >= measure_prob(theta, phi)[0]) for theta in angles]


# ---------------------------------------------------------------------------
# Toeplitz extractor


def toeplitz_matrix(ext) -> np.ndarray:
    """The output_len x input_len matrix with constant diagonals whose entry
    (i, j) is seed bit i - j + input_len - 1."""
    t = np.zeros((ext.output_len, ext.input_len), dtype=np.uint8)
    for i in range(ext.output_len):
        for j in range(ext.input_len):
            t[i, j] = ext.bits[i - j + ext.input_len - 1]
    return t


# ---------------------------------------------------------------------------
# maximum-likelihood decoding


def nearest_message(code, word) -> int:
    """The least message, as an integer whose bit k-1-i is message bit i,
    among those whose codeword generator @ m mod 2 lies at least Hamming
    distance from the 0/1 word."""
    k = code.generator.shape[1]
    messages = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1   # row m is m's bits
    dists = ((messages @ code.generator.T.astype(np.int64)) % 2 != np.asarray(word)).sum(axis=1)
    return int(np.flatnonzero(dists == dists.min())[0])


# ---------------------------------------------------------------------------
# the leakage family kernel, in its textbook form


def eval_family(fam, pts) -> tuple:
    """F at points (M, 3) and the least group denominator, read from the
    family's float rows alone, flat[0:3] and flat[3:6] the numerator
    rows and flat[6:9] the denominator row of each group: total
    starts at 0 and the minimum at inf, each group adds the squared norm
    np.square(pts @ nums.T).sum(axis=-1) against the strided transposed
    view of its (2, 3) rows over its denominator, and terms whose
    denominator is at most 1e-12 add 0."""
    total = np.zeros(pts.shape[:-1])
    den_min = np.full(pts.shape[:-1], np.inf)
    for row in fam.flat:
        nums, den = np.array([row[0:3], row[3:6]]), np.array(row[6:9])
        d = pts @ den
        den_min = np.minimum(den_min, d)
        num = np.square(pts @ nums.T).sum(axis=-1)
        keep = d > 1e-12
        total = total + np.where(keep, num / np.where(keep, d, 1.0), 0.0)
    return total, den_min


def family_sum(fam, rows) -> float:
    """sum over the rows (a, b, c) of F in plain floats, looped: per group
    the numerator starts at 0.0 and adds each numerator row's squared
    trace, and terms whose denominator is at most 1e-12 add 0."""
    total = 0.0
    for a, b, c in rows:
        for row in fam.flat:
            nums, (d0, d1, d2) = (row[0:3], row[3:6]), row[6:9]
            den = a * d0 + b * d1 + c * d2
            if den > 1e-12:
                num = 0.0
                for n0, n1, n2 in nums:
                    t = a * n0 + b * n1 + c * n2
                    num += t * t
                total += num / den
    return total


# ---------------------------------------------------------------------------
# the two-outcome net, built densely


def dense_net_level(origins, eps: float, lo: tuple, hi: tuple) -> np.ndarray:
    """The bases origin + eps * o, for each origin row and each integer
    triple o in the box [lo, hi), of the cells that can hold a two-outcome
    POVM, in origin-major lexicographic order: every cell's row is built,
    then masked.  A cell is kept when its least |b| squared is at most both
    its own diagonal product (a + eps)(c + eps) and its complement's
    (1 - a)(1 - c), each with a 1e-12 slack, and a, c <= 1 + 1e-12."""
    offsets = np.meshgrid(*(np.arange(l, h) for l, h in zip(lo, hi)), indexing="ij")
    grid = eps * np.stack(offsets, axis=-1).reshape(-1, 3)
    bases = (origins[:, None, :] + grid).reshape(-1, 3)
    a, b, c = bases[:, 0], bases[:, 1], bases[:, 2]
    bmin = np.where((b <= 0.0) & (0.0 <= b + eps), 0.0, np.minimum(np.abs(b), np.abs(b + eps)))
    limit = np.minimum((a + eps) * (c + eps) + 1e-12,
                       np.maximum(1.0 - a, 0.0) * np.maximum(1.0 - c, 0.0) + 1e-12)
    return bases[(bmin * bmin <= limit) & (a <= 1.0 + 1e-12) & (c <= 1.0 + 1e-12)]


# ---------------------------------------------------------------------------
# exact slice maxima: the encoding's states in Q(sqrt 2), polynomials in t


class QSqrt2:
    """The exact number a + b sqrt(2), with a and b Fractions."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    @staticmethod
    def of(x) -> "QSqrt2":
        return x if isinstance(x, QSqrt2) else QSqrt2(x)

    def __add__(self, other):
        other = QSqrt2.of(other)
        return QSqrt2(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + -QSqrt2.of(other)

    def __mul__(self, other):
        other = QSqrt2.of(other)
        return QSqrt2(self.a * other.a + 2 * self.b * other.b,
                      self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = QSqrt2.of(other)
        return self.a == other.a and self.b == other.b

    def sign(self) -> int:
        """-1, 0 or 1, decided exactly: where a and b differ in sign, by
        comparing a^2 with 2 b^2."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __repr__(self):
        return f"QSqrt2({self.a}, {self.b})"


# the encoding's angles as multiples of pi/8 (qrac.ENCODING_ANGLES)
EIGHTHS = {(0, 0): 1, (0, 1): -1, (1, 0): 3, (1, 1): 5}


def exact_rho(x: int, y: int) -> tuple:
    """The coordinate row (c^2, 2 c s, s^2) of the state at angle theta =
    k pi/8 for bits (x, y), exactly: c^2 = (1 + cos 2theta)/2 and 2 c s =
    sin 2theta, with cos 2theta and sin 2theta = +-sqrt(2)/2 at odd k."""
    k = EIGHTHS[x, y]
    cos2 = QSqrt2(0, Fraction(1 if k % 8 in (1, 7) else -1, 2))
    sin2 = QSqrt2(0, Fraction(1 if k % 8 in (1, 3) else -1, 2))
    return (QSqrt2(Fraction(1, 2)) + Fraction(1, 2) * cos2, sin2,
            QSqrt2(Fraction(1, 2)) - Fraction(1, 2) * cos2)


def _mean(r, s) -> tuple:
    return tuple(Fraction(1, 2) * (u + v) for u, v in zip(r, s))


def exact_families() -> dict:
    """The five leakage families, by name, as lists of (numerator rows,
    denominator row) groups of exact coordinate rows, in the library's
    group order: f0 and f1 over the bit averages, f01 both of their groups,
    g0 and g1 each bit's states over the other bit's average."""
    rho = {xy: exact_rho(*xy) for xy in itertools.product((0, 1), repeat=2)}
    bar0 = {x: _mean(rho[x, 0], rho[x, 1]) for x in (0, 1)}
    bar1 = {y: _mean(rho[0, y], rho[1, y]) for y in (0, 1)}
    eye = (QSqrt2(1), QSqrt2(0), QSqrt2(1))
    f0, f1 = ((bar0[0], bar0[1]), eye), ((bar1[0], bar1[1]), eye)
    return {"f0": [f0], "f1": [f1], "f01": [f0, f1],
            "g0": [((rho[0, y], rho[1, y]), bar1[y]) for y in (0, 1)],
            "g1": [((rho[x, 0], rho[x, 1]), bar0[x]) for x in (0, 1)]}


def poly_add(p, q) -> list:
    """Sum of two coefficient lists, constant term first."""
    n = max(len(p), len(q))
    return [QSqrt2.of(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
            for i in range(n)]


def poly_mul(*ps) -> list:
    """Product of coefficient lists, constant term first."""
    out = [QSqrt2(1)]
    for p in ps:
        prod = [QSqrt2(0)] * (len(out) + len(p) - 1)
        for i, u in enumerate(out):
            for j, v in enumerate(p):
                prod[i + j] = prod[i + j] + u * v
        out = prod
    return out


def slice_polynomial(groups, k) -> tuple:
    """p(t) = K (1 + t^2) prod_g D_g - sum_g N_g prod_{h != g} D_h, and the
    D_g, for the pure state (1, t)/sqrt(1 + t^2).  A coordinate row r
    gives Tr[M X] = (r0 + r1 t + r2 t^2)/(1 + t^2) at that state, so on it
    F = (1/(1 + t^2)) sum_g N_g/D_g with N_g the sum of the squared
    numerator rows and D_g the denominator row, and K - F has p's sign
    wherever every D_g is positive."""
    dens = [list(den) for _, den in groups]
    nums = [poly_add(*(poly_mul(list(r), list(r)) for r in rows)) for rows, _ in groups]
    p = [QSqrt2(k) * c for c in poly_mul([1, 0, 1], *dens)]
    for g, num in enumerate(nums):
        term = poly_mul(num, *(d for h, d in enumerate(dens) if h != g))
        p = poly_add(p, [-c for c in term])
    return p, dens


def log_enclosure(x: Fraction, terms: int = 40) -> tuple:
    """Fractions lo <= ln x <= hi for a rational x > 1: ln x = 2 atanh(z)
    with z = (x - 1)/(x + 1) in (0, 1), whose series sum_j z^(2j+1)/(2j+1)
    has positive terms, and whose tail past the first `terms` is at most
    the next term over 1 - z^2."""
    z = (x - 1) / (x + 1)
    lo = sum(z ** (2 * j + 1) / (2 * j + 1) for j in range(terms))
    tail = z ** (2 * terms + 1) / (2 * terms + 1) / (1 - z * z)
    return 2 * lo, 2 * (lo + tail)


def log2_enclosure(c: int, x: Fraction) -> tuple:
    """Fractions lo <= c log2(x) <= hi for a positive integer c and a
    rational x > 1, from the enclosures of ln x and of ln 2."""
    lo_x, hi_x = log_enclosure(Fraction(x))
    lo_2, hi_2 = log_enclosure(Fraction(2))
    return c * lo_x / hi_2, c * hi_x / lo_2


def least_double_at_or_above(lo: Fraction, hi: Fraction) -> float:
    """The least double at or above every number in [lo, hi]; AssertionError
    unless it is also the least at or above lo, so that it is the least
    double at or above the number the interval encloses."""
    d = float(hi)
    if Fraction(d) < hi:
        d = math.nextafter(d, math.inf)
    assert Fraction(math.nextafter(d, -math.inf)) < lo, "enclosure too wide to round"
    return d


# ---------------------------------------------------------------------------
# leakage lower bounds from rank-one POVMs


def leakage_values(elements) -> dict:
    """The three leakage quantities of a POVM on the four-state encoding,
    from its exact joint of (b0, b1, outcome) under uniform bits."""
    table = np.array([[[float(np.sum(m * density_matrix(qrac_encode(x, y)))) for m in elements]
                       for y in (0, 1)] for x in (0, 1)])
    d = JointDistribution(("b0", "b1", "out"), 0.25 * table)
    ic0, ic1 = collision_mi(d, "b0", "out"), collision_mi(d, "b1", "out")
    c0 = conditional_collision_mi(d, "b0", "out", "b1")
    c1 = conditional_collision_mi(d, "b1", "out", "b0")
    return {"greater": max(ic0, ic1), "total": ic0 + ic1, "conditional": max(c0, c1)}


def _rank_one(weights, phis) -> list:
    """Elements w * (projector onto the real state at angle phi)."""
    return [w * np.array([[c * c, c * s], [c * s, s * s]])
            for w, c, s in zip(weights, np.cos(phis), np.sin(phis))]


def rank_one_lower_bounds(samples: int, seed) -> dict:
    """Largest value of each leakage quantity over sampled rank-one POVMs.

    The three distinguished bases (angles 0, pi/8, pi/4) come first, then
    samples // 2 bases at uniform angles in [0, pi/2), then three- and
    four-element POVMs: rank-one elements w * (projector at angle phi) sum
    to the identity exactly when the weights sum to 2 and the weighted
    Bloch vectors (cos 2phi, sin 2phi) cancel, so the last two weights are
    solved from the other draws and the sample is kept when they land
    positive.  Every sample is a true POVM, so each value is a lower bound.
    """
    rng = np.random.default_rng(seed)
    best = {}

    def offer(elements):
        for q, v in leakage_values(elements).items():
            best[q] = max(best.get(q, -math.inf), v)

    for phi in (0.0, math.pi / 8, math.pi / 4):
        offer(_rank_one((1.0, 1.0), (phi, phi + math.pi / 2)))
    n_two = samples // 2
    for phi in rng.uniform(0.0, math.pi / 2, size=n_two):
        offer(_rank_one((1.0, 1.0), (phi, phi + math.pi / 2)))
    made = 0
    while made < samples - n_two:
        k = int(rng.integers(3, 5))
        phi = rng.uniform(0.0, math.pi, size=k)
        u = np.stack([np.cos(2 * phi), np.sin(2 * phi)], axis=-1)
        w_free = rng.uniform(0.1, 1.0, size=k - 2)
        rhs = -(w_free[:, None] * u[: k - 2]).sum(axis=0)
        mat = u[k - 2 :].T
        if abs(mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]) < 1e-6:
            continue
        w = np.concatenate([w_free, np.linalg.solve(mat, rhs)])
        if (w <= 1e-9).any():
            continue
        offer(_rank_one(w * (2.0 / w.sum()), phi))
        made += 1
    return best


# ---------------------------------------------------------------------------
# distribution files


def csv_text(d) -> str:
    """A header naming the variables and a final prob column, then one row
    per table cell: its indices and its probability."""
    lines = [",".join(d.names) + ",prob"]
    for idx in itertools.product(*(range(s) for s in d.table.shape)):
        lines.append(",".join(map(str, idx)) + f",{float(d.table[idx])!r}")
    return "\n".join(lines) + "\n"


def collision_entropy_given(d, x: str, given) -> float:
    """H_c(X|G) = -log2 sum_{x,g} p(x,g)^2 / p(g) over the g of positive
    mass, from numpy sums over the axes of a joint's table."""
    axes = [d.names.index(v) for v in (x, *given)]
    rest = tuple(i for i in range(d.table.ndim) if i not in axes)
    pxg = d.table.sum(axis=rest, keepdims=True)
    pg = pxg.sum(axis=axes[0], keepdims=True)
    terms = np.divide(pxg * pxg, pg, out=np.zeros(pxg.shape), where=pg > 0)
    return -math.log2(float(terms.sum()))


def json_text(d) -> str:
    """A variables list of names and sizes, and the flat table in C order."""
    return json.dumps({
        "variables": [{"name": n, "size": s} for n, s in zip(d.names, d.table.shape)],
        "table": d.table.ravel().tolist(),
    })


def strict_json(text: str):
    """The one JSON document in text, read as standard JSON: the Infinity,
    -Infinity and NaN that Python's json would accept are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not standard JSON")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# test inputs


def random_joint(names, sizes, seed) -> JointDistribution:
    """Uniformly random point of the probability simplex over the table."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(s) for s in sizes)
    flat = rng.dirichlet(np.ones(int(np.prod(shape))))
    return JointDistribution(tuple(names), flat.reshape(shape))


def basis_projectors(theta: float) -> tuple:
    """The projectors onto the real states at angles theta and theta + pi/2."""
    return density_matrix(theta), density_matrix(theta + math.pi / 2)


def grid_pairs(eps: float) -> list:
    """Rows ((a, b, c), (1 - a, -b, 1 - c)) of each two-outcome POVM whose
    first element is on the grid (0, -1/2, 0) + eps * o, a, c in [0, 1] and
    b in [-1/2, 1/2], both elements PSD, in lexicographic order of o."""
    n = int(1.0 / eps + 1e-9) + 1
    o = np.stack(np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    pairs = []
    for a, b, c in (np.array([0.0, -0.5, 0.0]) + eps * o).tolist():
        ra, rb, rc = 1.0 - a, -b, 1.0 - c
        if b * b > a * c + 1e-12 or ra < -1e-10 or rc < -1e-10:
            continue
        ra, rc = max(ra, 0.0), max(rc, 0.0)
        if rb * rb <= ra * rc + 1e-12:
            pairs.append(((a, b, c), (ra, rb, rc)))
    return pairs


# distribution files every reader must refuse, by file name
MALFORMED_DISTRIBUTIONS = {
    "empty.csv": "",
    "header-only.csv": "X,prob\n",
    "no-prob-column.csv": "X,p\n0,1.0\n",
    "short-row.csv": "X,Y,prob\n0,0.5\n",
    "word-index.csv": "X,prob\nzero,1.0\n",
    "negative-index.csv": "X,prob\n0,0.5\n-1,0.5\n",
    "duplicate-row.csv": "X,prob\n0,0.5\n0,0.5\n",
    "nan-mass.csv": "X,Y,prob\n0,0,nan\n1,1,0.5\n",
    "short-mass.csv": "X,prob\n0,0.3\n1,0.3\n",
    "huge-axis.csv": "X,prob\n1000000000000000,1.0\n",
    "truncated.json": '{"variables": [',
    "list.json": "[1, 2]",
    "fractional-size.json": '{"variables": [{"name": "X", "size": 2.7}], "table": [0.5, 0.5]}',
    "zero-size.json": '{"variables": [{"name": "X", "size": 0}], "table": []}',
    "short-table.json": '{"variables": [{"name": "X", "size": 3}], "table": [0.5, 0.5]}',
}
