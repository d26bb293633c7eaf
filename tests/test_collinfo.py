"""Collision-entropy identities and distribution plumbing."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import csv_text, json_text
from otmbench.collinfo import (
    JointDistribution,
    avg_conditional_min_entropy,
    collision_entropy,
    collision_mi,
    conditional_collision_entropy,
    conditional_collision_mi,
    random_joint,
)
from otmbench.errors import ResourceLimitError


def test_constructor_validation():
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        JointDistribution(("X", "X"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([np.nan, 1.0]))


def _grouped_oracle(d, groups):
    """The joint of the groups by moving their axes to the front and summing
    the rest away, renormalized: one flat axis per group."""
    keep = [d.names.index(n) for g in groups for n in g]
    t = np.moveaxis(d.table, keep, range(len(keep)))
    t = t.sum(axis=tuple(range(len(keep), t.ndim)))
    t = np.maximum(t, 0.0) / t.sum()
    sizes = [math.prod(d.table.shape[d.names.index(n)] for n in g) for g in groups]
    return t.reshape(sizes)


def test_grouped_matches_oracle_bit_for_bit():
    rng = np.random.default_rng(0)
    for _ in range(300):
        ndim = int(rng.integers(1, 5))
        names = tuple("ABCD"[:ndim])
        d = random_joint(names, rng.integers(1, 9, ndim), seed=int(rng.integers(2**32)))
        order = [str(n) for n in rng.permutation(names)][: int(rng.integers(1, ndim + 1))]
        cuts = np.sort(rng.integers(0, len(order) + 1, size=2))
        groups = [g for g in (order[:cuts[0]], order[cuts[0]:cuts[1]], order[cuts[1]:]) if g]
        want = _grouped_oracle(d, groups)
        got = d.grouped(*[g[0] if len(g) == 1 else tuple(g) for g in groups])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (d.table.shape, groups)


def test_csv_and_json_roundtrip():
    d = random_joint(("A", "B"), (3, 2), seed=5)
    back = JointDistribution.from_csv(csv_text(d))
    assert back.names == d.names
    assert np.allclose(back.table, d.table, atol=1e-15)
    back = JointDistribution.from_json(json_text(d))
    assert np.allclose(back.table, d.table, atol=1e-15)


@pytest.mark.parametrize("build, fragment", [
    (lambda: JointDistribution(("X", "Y"), np.ones(2) / 2), "2 names for a 1-axis table"),
    (lambda: JointDistribution(("X",), np.zeros(0)), "empty table"),
    (lambda: random_joint(("X", "Y"), (2, 2), seed=0).grouped(("X",), ("W",)),
     "unknown variable(s) ['W']"),
    (lambda: JointDistribution.from_csv("X,prob\n"), "needs a header and at least one row"),
    (lambda: JointDistribution.from_csv("X,p\n0,1.0\n"), "last CSV column must be 'prob'"),
    (lambda: JointDistribution.from_csv("X,prob\n0,0,1.0\n"), "row has 3 cells, expected 2"),
    (lambda: JointDistribution.from_json('{"variables": [}'), "malformed distribution description"),
])
def test_refusals_name_their_cause(build, fragment):
    with pytest.raises(ValueError) as info:
        build()
    assert fragment in str(info.value)


@pytest.mark.parametrize("rows", [
    "0,0.5\n1,0.5\n1,0.5\n",        # duplicate index: last would win
    "0,0.5\n1,0\n-1,0.5\n",         # negative index would wrap
])
def test_from_csv_rejects_bad_rows(rows):
    with pytest.raises(ValueError):
        JointDistribution.from_csv("X,prob\n" + rows)


@pytest.mark.parametrize("text", [
    "X,prob\n16777216,1.0\n",                   # 2^24 + 1 cells on one axis
    "X,Y,Z,prob\n0,0,0,0.5\n256,256,256,0.5\n",  # 257^3 cells, past 256^3 = 2^24
])
def test_from_csv_refuses_oversized_table(text):
    """The cell count is checked before the table is allocated: the refusal
    costs well under the 128 MiB a 2^24-cell table of floats would take."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            JointDistribution.from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_collision_entropy_uniform_and_point_mass():
    u = JointDistribution(("X",), np.full(8, 1 / 8))
    assert collision_entropy(u, ("X",)) == pytest.approx(3.0, abs=1e-12)
    point = JointDistribution(("X",), np.array([1.0, 0.0, 0.0]))
    assert collision_entropy(point, ("X",)) == pytest.approx(0.0, abs=1e-12)


def test_collision_mi_closed_forms():
    # X = Y uniform on 4 symbols: I_c = log2 4
    table = np.zeros((4, 4))
    np.fill_diagonal(table, 0.25)
    d = JointDistribution(("X", "Y"), table)
    assert collision_mi(d, ("X",), ("Y",)) == pytest.approx(2.0, abs=1e-12)
    # independent variables leak nothing
    d = JointDistribution(("X", "Y"), np.outer([0.3, 0.7], [0.2, 0.5, 0.3]))
    assert abs(collision_mi(d, ("X",), ("Y",))) <= 1e-12


def test_chain_rule_exact():
    """I_c(X:YZ) = I_c(X:Z) + I_c(X:Y|Z) holds as an identity."""
    for seed in range(200):
        d = random_joint(("X", "Y", "Z"), (3, 2, 4), seed=seed)
        lhs = collision_mi(d, ("X",), ("Y", "Z"))
        rhs = collision_mi(d, ("X",), ("Z",)) + conditional_collision_mi(
            d, ("X",), ("Y",), ("Z",)
        )
        assert abs(lhs - rhs) <= 1e-9, f"seed {seed}: {lhs} vs {rhs}"


def test_nonnegativity_and_max_bounds():
    for seed in range(200):
        d = random_joint(("X", "Y"), (4, 3), seed=1000 + seed)
        mi = collision_mi(d, ("X",), ("Y",))
        assert mi >= -1e-12
        assert conditional_collision_entropy(d, ("X",), ("Y",)) <= 2.0 + 1e-12
        assert mi <= 2.0 + 1e-9, "I_c(X:Y) <= log2|X|"


def test_independent_pairs_additivity():
    rng = np.random.default_rng(77)
    for _ in range(100):
        a = rng.dirichlet(np.ones(6)).reshape(2, 3)
        b = rng.dirichlet(np.ones(12)).reshape(4, 3)
        prod = np.einsum("xz,yw->xyzw", a, b)
        d = JointDistribution(("X", "Y", "Z", "W"), prod)
        da = JointDistribution(("X", "Z"), a)
        db = JointDistribution(("Y", "W"), b)
        lhs = collision_mi(d, ("X", "Y"), ("Z", "W"))
        rhs = collision_mi(da, ("X",), ("Z",)) + collision_mi(db, ("Y",), ("W",))
        assert abs(lhs - rhs) <= 1e-9


def test_unconditional_independence_additivity():
    rng = np.random.default_rng(13)
    for _ in range(100):
        px = rng.dirichlet(np.ones(3))
        py = rng.dirichlet(np.ones(4))
        d = JointDistribution(("X", "Y"), np.outer(px, py))
        lhs = collision_entropy(d, ("X", "Y"))
        rhs = collision_entropy(d, ("X",)) + collision_entropy(d, ("Y",))
        assert abs(lhs - rhs) <= 1e-9


def test_conditional_additivity_with_slice_independent_factor():
    """H_c(XY|Z) splits when X || Y given Z and one factor ignores Z.

    The averaged conditional collision sum is E_z[A_z * B_z]; conditional
    independence alone leaves a covariance term across slices, so the
    split needs one factor constant in z.  Both facts are pinned here.
    """
    rng = np.random.default_rng(31)
    for _ in range(100):
        pz = rng.dirichlet(np.ones(3))
        px = rng.dirichlet(np.ones(2))           # X independent of Z
        py_z = rng.dirichlet(np.ones(4), size=3)  # (z, y)
        table = np.einsum("z,x,zy->xyz", pz, px, py_z)
        d = JointDistribution(("X", "Y", "Z"), table)
        lhs = conditional_collision_entropy(d, ("X", "Y"), ("Z",))
        rhs = conditional_collision_entropy(d, ("X",), ("Z",)) + (
            conditional_collision_entropy(d, ("Y",), ("Z",))
        )
        assert abs(lhs - rhs) <= 1e-9

    # with both factors varying across slices the split breaks: the
    # covariance term is real, not a rounding artifact
    pz = np.array([0.5, 0.5])
    px_z = np.array([[0.9, 0.1], [0.5, 0.5]])
    py_z = np.array([[0.9, 0.1], [0.5, 0.5]])
    table = np.einsum("z,zx,zy->xyz", pz, px_z, py_z)
    d = JointDistribution(("X", "Y", "Z"), table)
    lhs = conditional_collision_entropy(d, ("X", "Y"), ("Z",))
    rhs = conditional_collision_entropy(d, ("X",), ("Z",)) + (
        conditional_collision_entropy(d, ("Y",), ("Z",))
    )
    assert abs(lhs - rhs) > 1e-3


def test_renyi_order_monotone():
    # sum p(x,y) p(x|y) <= sum_y max_x p(x,y), so H_min(X|Y) <= H_c(X|Y)
    for seed in range(100):
        d = random_joint(("X", "Y"), (5, 3), seed=seed)
        assert avg_conditional_min_entropy(d, ("X",), ("Y",)) <= (
            conditional_collision_entropy(d, ("X",), ("Y",)) + 1e-12
        )


def test_min_entropy_hand_computed():
    d = JointDistribution(("X", "Y"), np.array([[0.5, 0.1], [0.25, 0.15]]))
    # avg conditional: sum_y max_x p(x, y) = 0.5 + 0.15
    want = -math.log2(0.65)
    assert avg_conditional_min_entropy(d, ("X",), ("Y",)) == pytest.approx(
        want, abs=1e-12
    )


def channel_mix_triple(seed):
    """Two channels X|Y with the same output marginal under uniform Y."""
    rng = np.random.default_rng(seed)
    ny, nx = 3, 4
    q = rng.dirichlet(np.ones(nx), size=ny)  # (y, x)
    r = q[rng.permutation(ny)]  # same column multiset -> same X marginal
    alpha = rng.uniform()
    mix = alpha * q + (1 - alpha) * r
    to_joint = lambda c: JointDistribution(("Y", "X"), c / ny)
    return to_joint(q), to_joint(r), to_joint(mix), alpha


def test_mixture_convexity_of_collision_mi():
    for seed in range(200):
        dq, dr, dm, alpha = channel_mix_triple(seed)
        iq = collision_mi(dq, ("X",), ("Y",))
        ir = collision_mi(dr, ("X",), ("Y",))
        im = collision_mi(dm, ("X",), ("Y",))
        assert im <= alpha * iq + (1 - alpha) * ir + 1e-9, f"seed {seed}"
