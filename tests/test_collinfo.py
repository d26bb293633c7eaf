"""Collision-entropy identities, smoothing, and distribution plumbing."""

import math

import numpy as np
import pytest

from otmbench.collinfo import (
    JointDistribution,
    avg_conditional_min_entropy,
    collision_entropy,
    collision_mi,
    conditional_collision_entropy,
    conditional_collision_mi,
    markov_smooth,
    min_entropy,
    random_joint,
    smooth_collision_mi_upper,
    statistical_distance,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        JointDistribution(("X", "X"), np.full((2, 2), 0.25))
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        JointDistribution(("X",), np.array([np.nan, 1.0]))


def test_marginal_and_grouped_consistency():
    d = random_joint(("X", "Y", "Z"), (2, 3, 2), seed=0)
    mx = d.marginal(("X",))
    assert mx.table == pytest.approx(d.table.sum(axis=(1, 2)), abs=1e-15)
    g = d.grouped(("X", "Z"), ("Y",))
    assert g.shape == (4, 3)
    assert g.sum() == pytest.approx(1.0, abs=1e-12)


def test_csv_and_json_roundtrip():
    d = random_joint(("A", "B"), (3, 2), seed=5)
    back = JointDistribution.from_csv(d.to_csv())
    assert back.names == d.names
    assert np.allclose(back.table, d.table, atol=1e-15)
    back = JointDistribution.from_json(d.to_json())
    assert np.allclose(back.table, d.table, atol=1e-15)


@pytest.mark.parametrize("rows", [
    "0,0.5\n1,0.5\n1,0.5\n",        # duplicate index: last would win
    "0,0.5\n1,0\n-1,0.5\n",         # negative index would wrap
])
def test_from_csv_rejects_bad_rows(rows):
    with pytest.raises(ValueError):
        JointDistribution.from_csv("X,prob\n" + rows)


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
    for seed in range(100):
        d = random_joint(("X",), (5,), seed=seed)
        assert min_entropy(d, ("X",)) <= collision_entropy(d, ("X",)) + 1e-12


def test_min_entropy_hand_computed():
    d = JointDistribution(("X", "Y"), np.array([[0.5, 0.1], [0.25, 0.15]]))
    assert min_entropy(d, ("X",)) == pytest.approx(-math.log2(0.6), abs=1e-12)
    # avg conditional: sum_y max_x p(x, y) = 0.5 + 0.15
    want = -math.log2(0.65)
    assert avg_conditional_min_entropy(d, ("X",), ("Y",)) == pytest.approx(
        want, abs=1e-12
    )


def test_statistical_distance_basics():
    p = random_joint(("X", "Y"), (3, 3), seed=2)
    assert statistical_distance(p, p) == 0.0
    q = random_joint(("X", "Y"), (3, 3), seed=3)
    sd = statistical_distance(p, q)
    assert 0.0 <= sd <= 1.0
    assert sd == pytest.approx(0.5 * np.abs(p.table - q.table).sum(), abs=1e-12)


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


def spiky_joint():
    # most of Y's conditional mass hides in one rare symbol
    table = np.array(
        [
            [0.489, 0.001],
            [0.489, 0.001],
            [0.001, 0.009],
            [0.001, 0.009],
        ]
    )
    return JointDistribution(("X", "Y"), table / table.sum())


def test_markov_smooth_bookkeeping():
    d = spiky_joint()
    sm = markov_smooth(d, ("X",), ("Y",), cap=0.6)
    assert sm.sd_exact <= sm.sd_bound + 1e-12
    assert sm.cap == 0.6
    # every surviving conditional respects the cap
    joint = sm.truncated.grouped(("X",), ("Y",))
    pg = joint.sum(axis=0)
    cond = np.where(pg > 0, joint / np.where(pg > 0, pg, 1.0), 0.0)
    assert cond.max() < 0.6 + 1e-12
    with pytest.raises(ValueError):
        markov_smooth(d, ("X",), ("Y",), cap=0.0)


def test_markov_smooth_mask_on_grouped_axes():
    # target and given groups out of table order, one axis left out
    d = random_joint(("A", "B", "C", "D"), (2, 3, 2, 2), seed=7)
    joint = d.grouped(("C", "A"), ("D",))
    cond = joint / joint.sum(axis=0)
    cap = float(np.median(cond))
    sm = markov_smooth(d, ("C", "A"), ("D",), cap=cap)
    for idx in np.ndindex(*d.table.shape):
        t = np.ravel_multi_index((idx[2], idx[0]), (2, 2))
        removed = cond[t, idx[3]] >= cap
        assert (sm.truncated.table[idx] == 0.0) == removed, idx


def test_smooth_upper_at_zero_equals_exact():
    for seed in range(30):
        d = random_joint(("X", "Y", "Z"), (3, 2, 2), seed=seed)
        exact = conditional_collision_mi(d, ("X",), ("Y",), ("Z",))
        smooth = smooth_collision_mi_upper(d, ("X",), ("Y",), ("Z",), epsilon=0.0)
        assert smooth == pytest.approx(exact, abs=1e-12)


def test_smooth_upper_monotone_in_epsilon():
    d = spiky_joint()
    vals = [
        smooth_collision_mi_upper(d, ("X",), ("Y",), epsilon=e)
        for e in (0.0, 0.01, 0.05, 0.3)
    ]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12


def test_smooth_upper_alphabet_cap():
    """Budget 1/(2|Y|) always admits a witness with I_c <= 2 log2|Y|."""
    d = spiky_joint()
    ny = 2
    bound = smooth_collision_mi_upper(d, ("X",), ("Y",), epsilon=1 / (2 * ny))
    assert bound <= 2 * math.log2(ny) + 1e-9
