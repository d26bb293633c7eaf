"""Grid partitions, cone containment certificates, and feasibility arithmetic."""

import dataclasses
from decimal import Decimal, localcontext
import itertools
import math

import numpy as np
import pytest

from oracles import (
    _per_qubit_certificate,
    coords,
    inner_box,
    inner_cells,
    outer_box,
    reverse_lightcone,
)
from otmbench.errors import InvariantViolationError, ResourceLimitError
from otmbench.lightcone import (
    FeasibilityWitness,
    GridSpec,
    HypercubePartition,
    ShellCounts,
    build_partition,
    certify_independence,
    find_feasible_params,
    shell_accounting,
)


def test_grid_index_roundtrip():
    grid = GridSpec(D=3, side=5, ell=2, depth=1)
    assert grid.n == 125
    for idx in range(grid.n):
        assert grid.index(coords(grid, idx)) == idx
    with pytest.raises(ValueError):
        grid.index((5, 0, 0))
    for wrong_length in ((1,), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            grid.index(wrong_length)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(D=0, side=4, ell=2, depth=1)
    with pytest.raises(ValueError):
        GridSpec(D=2, side=4, ell=1, depth=1)
    with pytest.raises(ValueError):
        GridSpec(D=2, side=4, ell=2, depth=-1)


@pytest.mark.parametrize("name", ["D", "side", "ell", "depth"])
@pytest.mark.parametrize("value", [2.0, True, "2", None])
def test_grid_fields_must_be_integers(name, value):
    fields = {"D": 2, "side": 24, "ell": 2, "depth": 1}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        GridSpec(**{**fields, name: value})
    # numpy integers are integers, stored as Python ints
    grid = GridSpec(**{**fields, name: np.int64(fields[name])})
    assert grid == GridSpec(**fields) and type(getattr(grid, name)) is int


def test_cone_radius_growth():
    assert GridSpec(D=1, side=10, ell=2, depth=3).cone_radius == 8
    assert GridSpec(D=1, side=10, ell=3, depth=2).cone_radius == 9
    # depth 0 still claims radius 1 (uniform formula, conservative)
    assert GridSpec(D=1, side=10, ell=2, depth=0).cone_radius == 1


def test_reverse_lightcone_interior_and_clipped():
    grid = GridSpec(D=2, side=9, ell=2, depth=1)  # radius 2
    center = grid.index((4, 4))
    cone = reverse_lightcone(grid, center)
    assert len(cone) == 25, "interior cone is a full (2R+1)^D box"
    corner = grid.index((0, 0))
    cone = reverse_lightcone(grid, corner)
    assert len(cone) == 9, "corner cone clips to a (R+1)^D box"
    assert corner in cone


def test_partition_small_plane_figures():
    # 28x28 plane, radius-4 cones, r=3: outer 14, four cubes
    grid = GridSpec(D=2, side=28, ell=2, depth=2)
    part = build_partition(grid, r=3)
    assert part.outer_side == 14
    assert part.q == 4
    cubes = [inner_cells(part, j) for j in range(part.q)]
    assert all(len(cu) == 36 for cu in cubes)
    inner = set(np.concatenate(cubes).tolist())
    assert len(inner) == 144
    assert grid.n - len(inner) == 640
    counts = shell_accounting(part)
    assert counts.cu == 144
    assert counts.cu_bar == 640
    assert counts.q == 4
    assert counts.shell_fraction == pytest.approx(1 - 36 / 196, abs=1e-12)


def test_inner_cells_match_index_enumeration():
    """The oracle's cube listing indexes cells as GridSpec.index does, and
    its inner boxes sit a cone radius inside the outer ones."""
    for D, side, ell, depth, r in ((1, 12, 2, 1, 1), (2, 24, 2, 1, 2), (3, 16, 3, 0, 1)):
        grid = GridSpec(D=D, side=side, ell=ell, depth=depth)
        part = build_partition(grid, r=r)
        for j in range(part.q):
            for (olo, ohi), (ilo, ihi) in zip(outer_box(part, j), inner_box(part, j)):
                assert (ilo - olo, ohi - ihi) == (grid.cone_radius, grid.cone_radius)
            ranges = [range(lo, hi + 1) for lo, hi in inner_box(part, j)]
            want = sorted(grid.index(c) for c in itertools.product(*ranges))
            assert inner_cells(part, j).tolist() == want


def test_partition_requires_divisible_side():
    grid = GridSpec(D=2, side=10, ell=2, depth=1)
    with pytest.raises(Exception):
        build_partition(grid, r=2)  # outer side 8 does not divide 10


def test_build_partition_is_the_constructor():
    grid = GridSpec(D=2, side=24, ell=2, depth=1)
    part = HypercubePartition(grid, 2)
    assert build_partition(grid, r=2) == part
    assert (part.outer_side, part.q) == (8, 9)


def test_partition_constructor_refuses_bad_radius_side_and_count():
    grid = GridSpec(D=2, side=24, ell=2, depth=1)
    for r in (0, -1):
        with pytest.raises(ValueError, match="inner radius"):
            HypercubePartition(grid, r)
    with pytest.raises(ValueError, match="not divisible by outer side 10"):
        HypercubePartition(grid, 3)
    # 2^23 cubes of side 4 on a line: past the partition limit, refused
    line = GridSpec(D=1, side=4 << 23, ell=2, depth=0)
    with pytest.raises(ResourceLimitError, match="partition limit"):
        HypercubePartition(line, 1)


def test_partition_radius_must_be_an_integer():
    # a float r would make outer_side and q floats; a bool is not a radius
    grid = GridSpec(D=2, side=24, ell=2, depth=1)
    for r in (2.0, True):
        with pytest.raises(ValueError, match="r must be an integer"):
            build_partition(grid, r)
    part = HypercubePartition(grid, np.int64(2))
    assert type(part.r) is int and part == HypercubePartition(grid, 2)


def _assert_valid_counterexample(part, shrink, report):
    """The witness is an inner qubit of cube j whose cone reaches the cell,
    and the cell lies outside cube j's claim shrunk by ``shrink``."""
    grid = part.grid
    j, witness, cell = report.counterexample
    assert report.cubes_checked == j + 1
    assert witness in inner_cells(part, j)
    assert cell in reverse_lightcone(grid, witness)
    claim = [(lo + shrink, hi - shrink) for lo, hi in outer_box(part, j)]
    assert not all(lo <= c <= hi for c, (lo, hi) in zip(coords(grid, cell), claim))


def test_certificate_passes_and_fails_by_one_cell():
    grid = GridSpec(D=2, side=28, ell=2, depth=2)
    part = build_partition(grid, r=3)
    for certify in (certify_independence, _per_qubit_certificate):
        ok = certify(part)
        assert ok.passed, certify
        bad = certify(part, outer_shrink=1)
        assert not bad.passed
        assert bad.counterexample is not None
        _assert_valid_counterexample(part, 1, bad)


@pytest.mark.parametrize("shrink", [-1, 0.5, 1.0, True, "1", None])
def test_certificate_refuses_shrink_that_is_not_a_nonnegative_integer(shrink):
    part = build_partition(GridSpec(D=2, side=24, ell=2, depth=1), r=2)
    with pytest.raises(ValueError):
        certify_independence(part, outer_shrink=shrink)
    assert certify_independence(part, outer_shrink=np.int64(1)).counterexample == (0, 50, 2)


@pytest.mark.parametrize("D, side, shrunk, counts", [
    (2, 768, (0, 1538, 2), ShellCounts(262144, 327680, 4096, 0.5555555555555556)),
    (3, 96, (0, 18626, 194), ShellCounts(262144, 622592, 512, 0.7037037037037037)),
    (2, 96, (0, 194, 2), ShellCounts(4096, 5120, 64, 0.5555555555555556)),
])
def test_benchmark_grids_match_pinned_reports(D, side, shrunk, counts):
    """The benchmark's light-cone grids (ell 2, d 1, r 4): reports and shell
    counts as the per-cube interval check gave them."""
    part = build_partition(GridSpec(D=D, side=side, ell=2, depth=1), r=4)
    honest = certify_independence(part)
    assert (honest.passed, honest.cubes_checked, honest.counterexample) == (True, counts.q, None)
    bad = certify_independence(part, outer_shrink=1)
    assert (bad.passed, bad.cubes_checked, bad.counterexample) == (False, 1, shrunk)
    assert shell_accounting(part) == counts


def test_certificate_exact_past_int64():
    # one cube of outer side 2 + 2**62 per half of a 1-D grid: sides and
    # cells past 2**63, held in Python ints
    part = build_partition(GridSpec(D=1, side=2 * (2 + 2**62), ell=2, depth=61), r=1)
    assert shell_accounting(part) == ShellCounts(4, 2**63, 2, 1.0)
    honest = certify_independence(part)
    assert (honest.passed, honest.cubes_checked) == (True, 2)
    bad = certify_independence(part, outer_shrink=1)
    assert (bad.passed, bad.cubes_checked, bad.counterexample) == (False, 1, (0, 2**61, 0))


def test_certificate_methods_agree_on_sweep():
    """The partitions of acceptance criterion 8, each at shrink 0-3: the
    certificate and the per-qubit reference agree on passed and
    cubes_checked, every counterexample either reports is genuine, and the
    shell counts add up."""
    for D, ell, depth, r in itertools.product((1, 2, 3), (2, 3), (0, 1, 2), (1, 2, 3, 4)):
        grid = GridSpec(D=D, side=2 * (2 * r + 2 * ell**depth), ell=ell, depth=depth)
        part = build_partition(grid, r=r)
        for shrink in range(4):
            a = certify_independence(part, outer_shrink=shrink)
            b = _per_qubit_certificate(part, outer_shrink=shrink)
            assert (a.passed, a.cubes_checked) == (b.passed, b.cubes_checked), (part, shrink)
            assert a.passed == (shrink == 0)
            for report in (a, b):
                if not report.passed:
                    _assert_valid_counterexample(part, shrink, report)
        counts = shell_accounting(part)
        assert counts.cu == part.q * (2 * r) ** D
        assert counts.cu + counts.cu_bar == grid.n


def test_shell_counts_match_listed_inner_cells():
    """Independent oracle for the closed form: list every inner cube's
    cells and count them, on small partitions of each dimension."""
    for D, ell, depth, r, per_axis in itertools.product((1, 2, 3), (2, 3), (0, 1), (1, 2), (1, 2, 3)):
        side = per_axis * (2 * r + 2 * ell**depth)
        part = build_partition(GridSpec(D=D, side=side, ell=ell, depth=depth), r=r)
        cells = [inner_cells(part, j) for j in range(part.q)]
        listed = np.concatenate(cells)
        counts = shell_accounting(part)
        assert counts.cu == len(listed) == len(np.unique(listed)), part
        assert counts.cu + counts.cu_bar == side**D


def _partitions_built_by_tests():
    """Every partition the light-cone tests and acceptance criterion 8 build."""
    specs = [(D, 2 * (2 * r + 2 * ell**depth), ell, depth, r)
             for D, ell, depth, r in itertools.product((1, 2, 3), (2, 3), (0, 1, 2), (1, 2, 3, 4))]
    specs += [(2, 16, 2, 1, 2), (2, 28, 2, 2, 3), (2, 24, 2, 1, 2), (1, 12, 2, 1, 1),
              (3, 16, 3, 0, 1), (2, 768, 2, 1, 4), (3, 96, 2, 1, 4), (2, 96, 2, 1, 4),
              (1, 2 * (2 + 2**62), 2, 61, 1)]
    return [build_partition(GridSpec(D=D, side=side, ell=ell, depth=depth), r=r)
            for D, side, ell, depth, r in specs]


def test_certificate_passes_exactly_at_shrink_zero():
    """With outer side 2r + 2*ell**d every accepted partition passes the
    honest claim and fails every shrunk one at cube 0, as the
    certify_independence docstring argues; the per-qubit reference agrees
    wherever it can list the grid (at shrink 0 only on small grids, where
    it must walk every inner qubit; the 2**63-cell grid is past its
    listing limit)."""
    for part in _partitions_built_by_tests():
        honest = certify_independence(part)
        assert (honest.passed, honest.cubes_checked, honest.counterexample) == (True, part.q, None)
        if part.grid.n <= 10_000:
            assert _per_qubit_certificate(part) == (True, part.q, None), part
        for shrink in (1, 2, 3):
            bad = certify_independence(part, outer_shrink=shrink)
            assert (bad.passed, bad.cubes_checked, bad.counterexample[0]) == (False, 1, 0)
            if part.grid.n <= 1 << 22:      # cells listed in int64
                _assert_valid_counterexample(part, shrink, bad)
                ref = _per_qubit_certificate(part, outer_shrink=shrink)
                assert (ref.passed, ref.cubes_checked) == (bad.passed, bad.cubes_checked), part


def test_feasibility_witness_small_epsilons():
    w = find_feasible_params(0.01, 0.01, ell=2, depth=1, D=1)
    assert w.eq1_lhs <= w.eq1_rhs
    assert w.eq2_lhs >= w.eq2_rhs
    assert w.n == w.side
    # stage-one minimality: at r - 1 the n-proportional budget term
    # exceeds its allowance, so no smaller r can ever satisfy (1)
    r = w.r
    assert r >= 1
    if r > 1:
        inner = (2 * (r - 1)) ** w.D
        outer = (2 * (r - 1) + 2 * w.ell**w.depth) ** w.D
        assert 400 * (outer - inner) >= outer


def test_feasibility_witness_derives_its_counts_and_sides():
    w = find_feasible_params(0.25, 0.25, ell=2, depth=1, D=2)
    again = FeasibilityWitness(w.D, w.ell, w.depth, w.eps1, w.eps2, w.r, w.side)
    assert again == w
    t = w.side // (2 * w.r + 2 * w.ell**w.depth)
    assert (w.n, w.cu_bar) == (w.side**2, t**2 * ((2 * w.r + 4) ** 2 - (2 * w.r) ** 2))
    assert (w.eq1_rhs, w.eq2_lhs, w.eq2_rhs) == (w.n / 100, float(w.cu_bar), 2.0)
    with pytest.raises(ValueError):
        find_feasible_params(0.0, 0.5, ell=2, depth=1, D=1)


@pytest.mark.parametrize("change", [
    lambda w: {"side": w.side + 1},                     # not a multiple of the outer side
    lambda w: {"side": w.side - (2 * w.r + 2 * w.ell**w.depth)},   # t - 1
    lambda w: {"eps2": 2.0**-1000},                     # (1) fails at this grid
], ids=["side", "least_t_minus_one", "eps2"])
def test_feasibility_witness_rejects_untiled_or_short_fields(change):
    """Construction derives the tiling and decides (1) and (2): a side that
    does not tile, a tiling one step below the least t, or a smoothing
    parameter the grid cannot afford is refused."""
    w = find_feasible_params(0.25, 0.25, ell=2, depth=1, D=2)
    assert dataclasses.replace(w) == w
    with pytest.raises(InvariantViolationError):
        dataclasses.replace(w, **change(w))


def test_feasibility_refuses_non_integer_sizes():
    for flags in ({"ell": 2.0}, {"depth": 1.0}, {"D": True}):
        args = {"ell": 2, "depth": 1, "D": 2, **flags}
        with pytest.raises(ValueError, match="must be an integer"):
            find_feasible_params(0.25, 0.25, **args)


def test_feasibility_numpy_sizes_do_not_wrap():
    """numpy integer sizes give the witness of the Python ints; used raw,
    int64 powers would wrap at this size."""
    want = find_feasible_params(0.01, 0.01, ell=10, depth=15, D=2)
    got = find_feasible_params(0.01, 0.01, ell=np.int64(10), depth=np.int64(15), D=np.int64(2))
    assert got == want and want.n > 2**63


def test_feasibility_shell_floor_binds():
    w = find_feasible_params(2**-20, 0.5, ell=2, depth=1, D=1)
    assert w.cu_bar >= math.log2(1 / w.eps1)


def _constraints_hold_decimal(w, t) -> bool:
    """(1) and (2) at t outer cubes per axis, with the logs taken in
    60-digit decimal arithmetic: an oracle independent of the library."""
    width = w.ell**w.depth
    inner, outer = (2 * w.r) ** w.D, (2 * w.r + 2 * width) ** w.D
    cu_bar = t**w.D * (outer - inner)
    slack = t**w.D * outer - 300 * inner - 400 * cu_bar   # exact integer
    with localcontext() as ctx:
        ctx.prec = 60
        log2 = Decimal(2).ln()
        log1 = -Decimal(w.eps1).ln() / log2
        logs = 2 * log1 - Decimal(w.eps2).ln() / log2
        return 100 * logs <= slack and cu_bar >= log1


@pytest.mark.parametrize("D, ell, d, eps1, eps2, least_t", [
    # the float budget once took t one short of the least: (1) failed there
    (1, 2, 40, 1.0349472528284511e-113, 4.903351566684809e-133, 131611541844847009),
    # the float guess fell 4 645 477 steps short and the search gave up
    (2, 10, 40, 1.1184487846563072e-158, 2.444075158768966e-56,
     55519227428122203836057),
])
def test_feasibility_least_grid_is_exact(D, ell, d, eps1, eps2, least_t):
    w = find_feasible_params(eps1, eps2, ell=ell, depth=d, D=D)
    t, rem = divmod(w.side, 2 * w.r + 2 * ell**d)
    assert rem == 0 and t == least_t
    assert _constraints_hold_decimal(w, t)
    assert not _constraints_hold_decimal(w, t - 1)
