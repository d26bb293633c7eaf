"""Grid geometry for shallow local circuits.

A depth-d circuit of ell-local gates on a D-dimensional grid can move
information at most ell**d sites in L-infinity distance.  Partitioning the
grid into outer hypercubes with a buffer shell of that width makes the
inner cubes' reverse light cones pairwise disjoint, which is the geometric
fact everything downstream leans on.  This module builds such partitions,
certifies the containment claim, and searches for parameter sizes where
the shell overhead fits inside a 1/100 budget.

Circuits are represented purely by their geometry.  Gate contents never
matter here: only which sites a cone can reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import NamedTuple

from .errors import InvariantViolationError, ResourceLimitError, _check_int

__all__ = [
    "GridSpec",
    "HypercubePartition",
    "IndependenceReport",
    "ShellCounts",
    "FeasibilityWitness",
    "build_partition",
    "certify_independence",
    "shell_accounting",
    "find_feasible_params",
]

# cubes a partition may hold stay at desk scale
_MAX_CUBES = 1 << 22
# log2 of the most cells a feasibility witness's outer cube may hold
_MAX_OUTER_LOG2 = 400
# log2(1/eps) < 1075 for every positive double (the least is 2^-1074)
_LOG2_CAP = 1075


@dataclass(frozen=True)
class GridSpec:
    """D-dimensional grid of side**D qubits with ell-local depth-d circuits."""

    D: int
    side: int
    ell: int
    depth: int

    def __post_init__(self):
        for name in ("D", "side", "ell", "depth"):
            object.__setattr__(self, name, _check_int(name, getattr(self, name)))
        if self.D < 1:
            raise ValueError(f"dimension must be >= 1, got {self.D}")
        if self.side < 1:
            raise ValueError(f"side must be >= 1, got {self.side}")
        if self.ell < 2:
            raise ValueError(f"gate locality must be >= 2, got {self.ell}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")

    @property
    def n(self) -> int:
        return self.side**self.D

    @property
    def cone_radius(self) -> int:
        # ell**0 == 1: a depth-0 circuit still gets a radius-1 cone so the
        # formula stays uniform; this only widens the certified region.
        return self.ell**self.depth

    def index(self, coords) -> int:
        if len(coords) != self.D:
            raise ValueError(f"{len(coords)} coordinates for a {self.D}-dimensional grid")
        idx = 0
        for c in coords:
            if not 0 <= c < self.side:
                raise ValueError(f"coordinate {c} outside [0, {self.side})")
            idx = idx * self.side + c
        return idx


class ShellCounts(NamedTuple):
    cu: int
    cu_bar: int
    q: int
    shell_fraction: float


@dataclass(frozen=True)
class HypercubePartition:
    """Tiling of a grid by outer cubes, each split into inner cube + shell.

    Outer cubes have side s = 2r + 2*ell**d; the centered inner cube has
    side 2r, leaving a shell of width ell**d on every face.  Every axis is
    cut into the same intervals, position p spanning [p*s, (p+1)*s - 1],
    and each cube is the product of the intervals at its D positions.

    Built from the grid and r alone: the outer side s and the cube count
    q = (side // s)**D are derived.  Refuses an r that is not an integer,
    r < 1 and a side that s does not divide (ValueError), and more than
    _MAX_CUBES cubes (ResourceLimitError).
    """

    grid: GridSpec
    r: int
    outer_side: int = field(init=False)
    q: int = field(init=False)

    def __post_init__(self):
        g = self.grid
        r = _check_int("r", self.r)
        if r < 1:
            raise ValueError(f"inner radius must be >= 1, got {r}")
        outer_side = 2 * r + 2 * g.cone_radius
        if g.side % outer_side != 0:
            raise ValueError(f"grid side {g.side} not divisible by outer side {outer_side}")
        q = (g.side // outer_side) ** g.D
        if q > _MAX_CUBES:
            raise ResourceLimitError(f"{q} cubes exceeds the partition limit {_MAX_CUBES}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "outer_side", outer_side)
        object.__setattr__(self, "q", q)


def build_partition(grid: GridSpec, r: int) -> HypercubePartition:
    """Tile the grid into outer cubes of side 2r + 2*ell**d (see
    HypercubePartition for what is refused)."""
    return HypercubePartition(grid, r)


@dataclass(frozen=True)
class IndependenceReport:
    passed: bool
    cubes_checked: int
    # (cube index, inner qubit, cell its cone reaches outside the claim)
    counterexample: tuple | None = None


def certify_independence(part: HypercubePartition, outer_shrink: int = 0) -> IndependenceReport:
    """Check that every inner-cube qubit's cone stays inside its outer cube.

    ``outer_shrink`` trims the claimed region by that many cells on every
    face, which lets tests confirm the certificate is tight: the honest
    claim passes and any smaller one fails.

    Inner cubes, cone boxes and claims are products of per-axis intervals,
    and every axis has the same intervals, so a cube's claim holds exactly
    when it holds at each of its positions.  The partition fixes
    s = 2r + 2R, so position p's inner interval [lo + R, lo + s - 1 - R]
    reaches exactly [lo, lo + s - 1]: the low reach max(0, lo) is lo, and
    the high reach min(side - 1, lo + s - 1) is lo + s - 1, as the
    intervals tile the side.  The claim is [lo + shrink, lo + s - 1 - shrink],
    so every position holds at shrink 0 and none holds at shrink >= 1.
    Hence an accepted partition passes at shrink 0, and otherwise fails at
    cube 0, whose inner low corner's cone reaches cell 0 on axis 0.
    """
    if _check_int("outer_shrink", outer_shrink) < 0:
        raise ValueError(f"outer_shrink must be a nonnegative integer, got {outer_shrink!r}")
    if outer_shrink == 0:
        return IndependenceReport(True, part.q)
    grid, R = part.grid, part.grid.cone_radius
    witness = [R] * grid.D  # inner low corner of cube 0
    cell = [0] + [R] * (grid.D - 1)
    return IndependenceReport(False, 1, (0, grid.index(witness), grid.index(cell)))


def shell_accounting(part: HypercubePartition) -> ShellCounts:
    """Closed-form cell counts: cu = q * (2r)**D inner cells, the rest shell.

    These equal the box volumes summed over the interval list, so there is
    nothing left to cross-check.  The partition derives s = 2r + 2R (s the
    outer side, R the cone radius) and q = (side // s)**D, and refuses a
    side that s does not divide, so there are side // s intervals per
    axis, the outer volumes sum to (side // s * s)**D = n and the inner
    ones to (side // s * (s - 2R))**D = q * (2r)**D.
    """
    g, s = part.grid, part.outer_side
    inner, outer = (2 * part.r) ** g.D, s**g.D
    cu = part.q * inner
    return ShellCounts(cu, g.n - cu, part.q, 1.0 - inner / outer)


@dataclass(frozen=True)
class FeasibilityWitness:
    """Concrete (n, r) satisfying the two parameter constraints.

    The budget inequality charges three inner-cube-sized terms, the shell
    four times over, and the two log terms against n/100:

        2*(2r)**D + 2*log2(1/eps1) + log2(1/eps2) + 4*|CU_bar| + (2r)**D
            <= n / 100                                             (1)
        |CU_bar| >= log2(1/eps1)                                   (2)

    with |CU_bar| = n * (1 - (2r)**D / (2r + 2*ell**d)**D).  Built from
    the parameters, r and the grid side: n = side**D, cu_bar and the four
    float fields (both sides of (1) and of (2) evaluated in floats, for
    reporting) are derived.  Construction decides the tiling and both
    inequalities exactly, in integers, and refuses a witness that fails
    any of them.
    """

    D: int
    ell: int
    depth: int
    eps1: float
    eps2: float
    r: int
    side: int
    n: int = field(init=False)
    cu_bar: int = field(init=False)
    eq1_lhs: float = field(init=False)
    eq1_rhs: float = field(init=False)
    eq2_lhs: float = field(init=False)
    eq2_rhs: float = field(init=False)

    def __post_init__(self):
        outer_side = 2 * self.r + 2 * self.ell**self.depth
        t, rem = divmod(self.side, outer_side)
        if rem:
            raise InvariantViolationError(
                f"side {self.side} does not tile outer cubes of side {outer_side}")
        inner, outer = (2 * self.r) ** self.D, outer_side**self.D
        n, cu_bar = self.side**self.D, t**self.D * (outer - inner)
        if not _budget_holds(self.eps1, self.eps2, inner, n, cu_bar):
            raise InvariantViolationError("budget inequality (1) fails")
        if not _shell_holds(self.eps1, cu_bar):
            raise InvariantViolationError("shell-size inequality (2) fails")
        sides = _float_sides(self.eps1, self.eps2, inner, n, cu_bar)
        for name, value in zip(("n", "cu_bar", "eq1_lhs", "eq1_rhs", "eq2_lhs", "eq2_rhs"),
                               (n, cu_bar, *sides)):
            object.__setattr__(self, name, value)


def _budget_holds(eps1, eps2, inner, n, cu_bar) -> bool:
    """(1) decided exactly.  Times 100 it reads
    100 * (2*log2(1/eps1) + log2(1/eps2)) <= P with
    P = n - 300*inner - 400*cu_bar, that is P >= 0 and
    (eps1^2 * eps2)^-100 <= 2^P, each eps the ratio of integers its double
    stores.  The left side is below 300 * _LOG2_CAP, so (1) holds for any P
    past that."""
    p = n - 300 * inner - 400 * cu_bar
    if p < 0:
        return False
    if p >= 300 * _LOG2_CAP:
        return True
    (a1, b1), (a2, b2) = eps1.as_integer_ratio(), eps2.as_integer_ratio()
    return (a1 * a1 * a2) ** 100 << p >= (b1 * b1 * b2) ** 100


def _shell_holds(eps1, cu_bar) -> bool:
    """(2) decided exactly: cu_bar >= log2(1/eps1) iff 2^cu_bar * eps1 >= 1."""
    if cu_bar >= _LOG2_CAP:
        return True
    a, b = eps1.as_integer_ratio()
    return a << cu_bar >= b


def _float_sides(eps1, eps2, inner, n, cu_bar) -> tuple:
    """Both sides of (1) and of (2) evaluated in floats."""
    log1 = math.log2(1.0 / eps1)
    lhs1 = 3 * inner + 2 * log1 + math.log2(1.0 / eps2) + 4 * cu_bar
    return float(lhs1), n / 100.0, float(cu_bar), log1


def _least(pred, hi: int) -> int:
    """Least integer r >= 1 with pred(r), for pred false below some point
    and true from it on; hi is a first guess, doubled while pred fails."""
    lo = 0
    while not pred(hi):      # only if the guess falls short
        lo, hi = hi, 2 * hi
    while hi - lo > 1:       # pred(hi) holds; pred(lo) fails unless lo == 0
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi


def find_feasible_params(
    eps1: float, eps2: float, ell: int, depth: int, D: int
) -> FeasibilityWitness:
    """Smallest r, then smallest grid, meeting both constraints.

    Stage one finds the least r with 400 * (outer - inner) < outer in exact
    integers, where outer and inner are the per-cube cell counts.  The
    condition reads r / (r + ell**d) > (399/400)**(1/D) and grows with r,
    so its closed form brackets r and bisection on the integer inequality
    settles it.  Stage two takes the least number t of outer cubes per axis
    for which (1) and (2) hold, both decided exactly (_budget_holds,
    _shell_holds).  Once either holds it holds for every larger t: cu_bar
    grows with t, and so does P = t**D * (outer - 400 * (outer - inner))
    - 300 * inner, whose factor stage one made positive.  Parameters whose
    outer cube could exceed 2^400 cells are refused before any power is
    taken, which keeps n (at most about the square of that count) in float
    range for the reported float sides.
    """
    if not all(0.0 < e < 1.0 and math.isfinite(1.0 / e) for e in (eps1, eps2)):
        raise ValueError("smoothing parameters must lie in (0, 1) with finite log2(1/eps)")
    # integer and bounds checks on D, ell, d; numpy integers become ints,
    # so the powers below never wrap
    grid = GridSpec(D=D, side=1, ell=ell, depth=depth)
    D, ell, depth = grid.D, grid.ell, grid.depth
    # r <= 402 * D * ell**d, so an outer side is at most (804 * D + 4) * ell**d;
    # a D or d past the limit fails the test anyway and is refused before
    # it reaches a float
    if max(D, depth) > _MAX_OUTER_LOG2 or (
        D * (math.log2(804 * D + 4) + depth * math.log2(ell)) > _MAX_OUTER_LOG2
    ):
        raise ResourceLimitError(
            f"D={D}, ell={ell}, d={depth}: an outer cube could exceed "
            f"2^{_MAX_OUTER_LOG2} cells"
        )

    width = ell**depth

    def fits(r):
        outer = (2 * r + 2 * width) ** D
        return 400 * (outer - (2 * r) ** D) < outer

    r = _least(fits, math.floor(width / -math.expm1(math.log1p(-1 / 400) / D)) + 1)
    inner, outer = (2 * r) ** D, (2 * r + 2 * width) ** D

    def holds(t):
        cu_bar = t**D * (outer - inner)
        return (_budget_holds(eps1, eps2, inner, t**D * outer, cu_bar)
                and _shell_holds(eps1, cu_bar))

    side = _least(holds, 1) * (2 * r + 2 * width)
    return FeasibilityWitness(D, ell, depth, eps1, eps2, r, side)
