"""Grid partitions, cone containment certificates, and feasibility arithmetic."""

import itertools
import math

import numpy as np
import pytest

from otmbench.errors import InvariantViolationError
from otmbench.lightcone import (
    FeasibilityWitness,
    GridSpec,
    build_partition,
    certify_independence,
    find_feasible_params,
    regroup_measurements,
    reverse_lightcone,
    shell_accounting,
)


def test_grid_index_roundtrip():
    grid = GridSpec(D=3, side=5, ell=2, depth=1)
    assert grid.n == 125
    for idx in range(grid.n):
        assert grid.index(grid.coords(idx)) == idx
    with pytest.raises(ValueError):
        grid.index((5, 0, 0))
    with pytest.raises(ValueError):
        grid.coords(125)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(D=0, side=4, ell=2, depth=1)
    with pytest.raises(ValueError):
        GridSpec(D=2, side=4, ell=1, depth=1)
    with pytest.raises(ValueError):
        GridSpec(D=2, side=4, ell=2, depth=-1)


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
    cubes = [part.inner_cells(j) for j in range(part.q)]
    assert all(len(cu) == 36 for cu in cubes)
    inner = set(np.concatenate(cubes).tolist())
    assert len(inner) == 144
    assert grid.n - len(inner) == 640
    counts = shell_accounting(part)
    assert counts.cu == 144
    assert counts.cu_bar == 640
    assert counts.q == 4
    assert counts.shell_fraction == pytest.approx(1 - 36 / 196, abs=1e-12)


def test_partition_boxes_consistent():
    grid = GridSpec(D=2, side=24, ell=2, depth=1)
    part = build_partition(grid, r=2)
    for j in range(part.q):
        outer = part.outer_box(j)
        inner = part.inner_box(j)
        for (olo, ohi), (ilo, ihi) in zip(outer, inner):
            assert olo + grid.cone_radius == ilo
            assert ohi - grid.cone_radius == ihi
        # inner cube cells really sit inside the inner box
        for qubit in part.inner_cells(j).tolist():
            for axis, coord in enumerate(grid.coords(qubit)):
                lo, hi = inner[axis]
                assert lo <= coord <= hi


def test_inner_cells_match_index_enumeration():
    for D, side, ell, depth, r in ((1, 12, 2, 1, 1), (2, 24, 2, 1, 2), (3, 16, 3, 0, 1)):
        grid = GridSpec(D=D, side=side, ell=ell, depth=depth)
        part = build_partition(grid, r=r)
        for j in range(part.q):
            ranges = [range(lo, hi + 1) for lo, hi in part.inner_box(j)]
            want = sorted(grid.index(c) for c in itertools.product(*ranges))
            assert part.inner_cells(j).tolist() == want


def test_partition_requires_divisible_side():
    grid = GridSpec(D=2, side=10, ell=2, depth=1)
    with pytest.raises(Exception):
        build_partition(grid, r=2)  # outer side 8 does not divide 10


def test_certificate_passes_and_fails_by_one_cell():
    grid = GridSpec(D=2, side=28, ell=2, depth=2)
    part = build_partition(grid, r=3)
    for method in ("exhaustive", "interval"):
        ok = certify_independence(part, method=method)
        assert ok.passed, method
        bad = certify_independence(part, outer_shrink=1, method=method)
        assert not bad.passed
        assert bad.counterexample is not None
        j, qubit, cell = bad.counterexample
        # the witness cone really does leave the shrunken claim
        cone = reverse_lightcone(grid, qubit)
        assert cell in cone


def test_certificate_methods_agree_on_sweep():
    for D, r, ell, depth in itertools.product((1, 2), (1, 2), (2, 3), (0, 1)):
        outer = 2 * r + 2 * ell**depth
        grid = GridSpec(D=D, side=2 * outer, ell=ell, depth=depth)
        part = build_partition(grid, r=r)
        a = certify_independence(part, method="exhaustive")
        b = certify_independence(part, method="interval")
        assert a.passed and b.passed, (D, r, ell, depth)
        counts = shell_accounting(part)
        assert counts.cu == part.q * (2 * r) ** D
        assert counts.cu + counts.cu_bar == grid.n


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


def test_feasibility_witness_reverifies_on_construction():
    w = find_feasible_params(0.25, 0.25, ell=2, depth=1, D=2)
    with pytest.raises(InvariantViolationError):
        FeasibilityWitness(
            D=w.D, ell=w.ell, depth=w.depth, eps1=w.eps1, eps2=w.eps2,
            r=w.r, side=w.side, n=w.n, cu_bar=w.cu_bar,
            eq1_lhs=w.eq1_rhs + 1.0, eq1_rhs=w.eq1_rhs,
            eq2_lhs=w.eq2_lhs, eq2_rhs=w.eq2_rhs,
        )
    with pytest.raises(ValueError):
        find_feasible_params(0.0, 0.5, ell=2, depth=1, D=1)


def test_feasibility_shell_floor_binds():
    w = find_feasible_params(2**-20, 0.5, ell=2, depth=1, D=1)
    assert w.cu_bar >= math.log2(1 / w.eps1)


def test_regroup_measurements_partitions_outcomes():
    grid = GridSpec(D=1, side=12, ell=2, depth=1)
    part = build_partition(grid, r=1)
    inner = [q for j in range(part.q) for q in part.inner_cells(j).tolist()]
    assignment = {q: q % 2 for q in inner}
    groups = regroup_measurements(part, assignment)
    assert len(groups) == part.q
    flat = [q for g in groups for q in g]
    assert sorted(flat) == sorted(assignment[q] for q in inner)
    with pytest.raises(ValueError):
        regroup_measurements(part, {})
