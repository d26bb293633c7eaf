"""Measurement-leakage search: point values, cell bounds, certificates."""

import dataclasses
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fractions import Fraction

from oracles import (
    EIGHTHS,
    basis_projectors,
    dense_net_level,
    eval_family,
    exact_families,
    family_sum,
    grid_pairs,
    least_double_at_or_above,
    log2_enclosure,
    poly_mul,
    rank_one_lower_bounds,
    slice_polynomial,
)
from otmbench import povmsearch
from otmbench.errors import InvariantViolationError, ResourceLimitError
from otmbench.povmsearch import (
    DISTINGUISHED_ANGLES,
    QUANTITIES,
    REFERENCE_SETS,
    Povm,
    PovmInfo,
    corner_corrected_value,
    eval_povm_info,
    quantity_value,
    search_bounds,
    value_from_info,
)
from otmbench.povmsearch import (
    _CORNERS,
    _NET_BLOCK,
    _axis_counts,
    _combine,
    _corner_points,
    _count_flat_cells,
    _eval_family,
    _family_sum,
    _make_family,
    _net_level,
    _outcome_table,
    _pair_cells,
    _quantity,
    _refine_steps,
)
from otmbench.qrac import ENCODING_ANGLES, density_matrix, measure_prob, qrac_encode

LOG2_3_2 = math.log2(1.5)
LOG2_5_4_X2 = 2 * math.log2(1.25)


def basis_povm(theta):
    return Povm(basis_projectors(theta))


def random_two_outcome(rng):
    # rejection sample coordinates with M and I - M both PSD
    while True:
        a, c = rng.uniform(0, 1, size=2)
        b = rng.uniform(-0.5, 0.5)
        m = np.array([[a, b], [b, c]])
        if np.linalg.eigvalsh(m)[0] < 0:
            continue
        if np.linalg.eigvalsh(np.eye(2) - m)[0] < 0:
            continue
        return Povm((m, np.eye(2) - m))


# ---------------------------------------------------------------------------
# point values


def test_distinguished_basis_anchors():
    info = eval_povm_info(basis_povm(0.0))
    assert info.ic_b0 == pytest.approx(LOG2_3_2, abs=1e-12)
    assert abs(info.ic_b1) <= 1e-12
    # conjugate basis swaps the roles of the two bits
    info = eval_povm_info(basis_povm(math.pi / 4))
    assert info.ic_b1 == pytest.approx(LOG2_3_2, abs=1e-12)
    assert abs(info.ic_b0) <= 1e-12
    # intermediate basis splits the leakage evenly
    info = eval_povm_info(basis_povm(math.pi / 8))
    assert info.ic_b0 == pytest.approx(math.log2(1.25), abs=1e-12)
    assert info.ic_b0 + info.ic_b1 == pytest.approx(LOG2_5_4_X2, abs=1e-12)


def test_quantity_value_dispatch():
    p = basis_povm(0.0)
    info = eval_povm_info(p)
    for q in QUANTITIES:
        assert quantity_value(p, q) == pytest.approx(value_from_info(info, q), abs=1e-12)
    with pytest.raises(ValueError):
        quantity_value(p, "sharpest")


_ENTRY_POINTS = {
    # each call is otherwise malformed too where it can be (eps below 0,
    # eps_fine above eps_coarse), so the name must be refused first
    "quantity_value": lambda q: quantity_value(basis_povm(0.0), q),
    "corner_corrected_value": lambda q: corner_corrected_value(basis_povm(0.0), -1.0, q),
    "search_bounds": lambda q: search_bounds(0.005, 0.05, q),
    "value_from_info": lambda q: value_from_info(PovmInfo(0.0, 0.0, 0.0, 0.0), q),
}


@pytest.mark.parametrize("name", ["bogus", ["total"]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_unknown_quantity_refused_alike_before_any_work(entry, name, monkeypatch):
    def no_eval(*args):
        raise AssertionError("evaluated before refusing the quantity")

    monkeypatch.setattr(povmsearch, "_eval_family", no_eval)
    monkeypatch.setattr(povmsearch, "_family_sum", no_eval)
    want = f"unknown quantity {name!r}; expected one of {QUANTITIES}"
    with pytest.raises(ValueError, match=re.escape(want)):
        _ENTRY_POINTS[entry](name)


def test_fast_path_matches_joint_distribution_route():
    """Closed-form search evaluation agrees with the entropy-code route."""
    rng = np.random.default_rng(8)
    for _ in range(200):
        p = random_two_outcome(rng)
        info = eval_povm_info(p)
        for q in QUANTITIES:
            assert quantity_value(p, q) == pytest.approx(
                value_from_info(info, q), abs=1e-10
            )


def test_fast_path_three_and_four_outcomes():
    rng = np.random.default_rng(9)
    count = 0
    while count < 50:
        w = rng.dirichlet(np.ones(3))
        thetas = rng.uniform(0, math.pi, size=3)
        els = []
        for wi, th in zip(w, thetas):
            v = np.array([math.cos(th), math.sin(th)])
            els.append(2 * wi * np.outer(v, v))
        total = els[0] + els[1] + els[2]
        if np.abs(total - np.eye(2)).max() > 1e-9:
            # weights do not close the Bloch sum; rescale the last element
            els[2] = np.eye(2) - els[0] - els[1]
            if np.linalg.eigvalsh(els[2])[0] < 0:
                continue
        p = Povm(tuple(els))
        info = eval_povm_info(p)
        for q in QUANTITIES:
            assert quantity_value(p, q) == pytest.approx(
                value_from_info(info, q), abs=1e-10
            )
        count += 1


def test_povm_validation():
    eye = np.eye(2)
    with pytest.raises(InvariantViolationError):
        Povm((eye, eye))  # sums to 2I
    with pytest.raises(InvariantViolationError):
        Povm((np.array([[1.5, 0], [0, 1.0]]), -0.25 * eye, -0.25 * eye))
    with pytest.raises(InvariantViolationError):
        Povm((0.2 * eye,) * 5)
    single = Povm((eye,))
    assert len(single.elements) == 1


def test_coords_roundtrip():
    rng = np.random.default_rng(4)
    p = random_two_outcome(rng)
    q = Povm.from_coords(p._rows)
    for a, b in zip(p.elements, q.elements):
        assert np.allclose(a, b, atol=1e-15)


def test_povm_refuses_nan_and_malformed_rows():
    with pytest.raises(InvariantViolationError, match="not PSD"):
        Povm.from_coords([[math.nan, 0.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(InvariantViolationError):
        Povm.from_coords([[0.5, math.nan, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(InvariantViolationError, match="three numbers"):
        Povm.from_coords([[1.0, 0.0, 1.0, 0.0]])
    with pytest.raises(InvariantViolationError, match="three numbers"):
        Povm.from_coords([1.0, 0.0, 1.0])
    with pytest.raises(InvariantViolationError):
        Povm((np.array([[math.nan, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])))


def random_povm(rng, k):
    """k random PSD elements, congruence-normalized to sum to the identity."""
    if k == 1:
        return [np.eye(2)]
    xs = rng.normal(size=(k, 2, 2))
    raw = xs @ xs.transpose(0, 2, 1)
    w, v = np.linalg.eigh(raw.sum(axis=0))
    s = v @ np.diag(w ** -0.5) @ v.T
    return [(m + m.T) / 2 for m in s @ raw @ s]


def test_scalar_path_matches_array_kernel():
    rng = np.random.default_rng(9)
    cases = [random_povm(rng, k) for k in (1, 2, 3, 4) for _ in range(25)]
    # a zero element: every one of its denominators is 0 <= _DEN_ZERO
    cases.append(random_povm(rng, 3) + [np.zeros((2, 2))])
    cases.append([np.zeros((2, 2)), np.eye(2)])
    for els in cases:
        p = Povm(tuple(els))
        coords = [(m[0, 0], m[0, 1], m[1, 1]) for m in els]
        r = Povm.from_coords(coords)
        assert p._rows == r._rows
        assert p.as_lists() == r.as_lists()
        for q in QUANTITIES:
            fast = quantity_value(p, q)
            sums = [_eval_family(fam, np.array(p._rows))[0].sum() for fam in _quantity(q).fams]
            assert abs(fast - float(_combine(q, *sums))) <= 1e-13
            assert quantity_value(r, q) == fast


FAMILIES = (povmsearch._FAM_F0, povmsearch._FAM_F1, povmsearch._FAM_G0, povmsearch._FAM_G1)


def _kernel_points(kind, m, rng):
    """m points (a, b, c) of one kind: uniform in [-1.5, 2]^3, on the
    0.05-grid of the net (denominators exactly 0 among them), zero rows,
    within 1e-12 of 0 (denominators at and under _DEN_ZERO and
    _DEN_FLOOR), or a shuffled mix of these and of points within 1e-9."""
    if kind == "uniform":
        return rng.uniform(-1.5, 2.0, (m, 3))
    if kind == "grid":
        return 0.05 * rng.integers(0, 21, (m, 3)) - np.array([0.0, 0.5, 0.0])
    if kind == "zero":
        return np.zeros((m, 3))
    if kind == "tiny":
        return rng.uniform(-1e-12, 1e-12, (m, 3))
    parts = [_kernel_points(k, m, rng) for k in ("uniform", "grid", "zero", "tiny")]
    parts.append(rng.uniform(-1e-9, 1e-9, (m, 3)))
    return rng.permutation(np.concatenate(parts))[:m]


def test_eval_family_matches_the_textbook_bits():
    # _eval_family's docstring argues its bits equal the textbook form's on
    # two or more rows (a one-row product may round differently): checked
    # for every family on each kind of point and on its complements I - p
    rng = np.random.default_rng(30)
    identity = np.array([1.0, 0.0, 1.0])
    for m in (2, 8, 9, 1000, 30_000):
        for kind in ("uniform", "grid", "zero", "tiny", "mixed"):
            pts = _kernel_points(kind, m, rng)
            for p in (pts, identity - pts):
                for fam in FAMILIES:
                    got, want = _eval_family(fam, p), eval_family(fam, p)
                    assert got[0].tobytes() == want[0].tobytes(), (m, kind)
                    assert got[1].tobytes() == want[1].tobytes(), (m, kind)


def test_family_operands_are_contiguous_columns():
    # a strided transposed view gives the same numbers but takes numpy's
    # slow product path: the layout is held here, not only by timing
    for fam in FAMILIES:
        for cols, row in zip(fam.cols, fam.flat):
            assert cols.shape == (3, 2) and cols.dtype == np.float64
            assert cols.flags.c_contiguous
            assert cols.T.tolist() == [list(row[0:3]), list(row[3:6])]


@pytest.mark.parametrize("count", [0, 1, 3])
def test_family_groups_take_two_numerator_states(count, monkeypatch):
    # the bad group comes second, so the good one would be built first
    # were the refusal made group by group
    def no_build(mat):
        raise AssertionError("a group was built before the refusal")

    monkeypatch.setattr(povmsearch, "_coeff", no_build)
    eye = np.eye(2)
    with pytest.raises(ValueError, match="2 numerator states"):
        _make_family([((eye, eye), eye), ((eye,) * count, eye)])


def test_family_takes_a_group():
    with pytest.raises(ValueError, match="at least one group"):
        _make_family([])


def test_family_sum_matches_the_looped_form():
    # the written-out numerator against the looped one, bit for bit, on
    # single rows and on runs of 2 to 4 rows; rows (x, y, -x) put the
    # identity denominator of f0 and f1 at exactly 0, and the zero and
    # tiny rows put every denominator at or under _DEN_ZERO
    rng = np.random.default_rng(32)
    rows = _kernel_points("mixed", 10_000, rng)
    x, y = rng.uniform(-1.0, 1.0, (2, 500))
    rows = np.concatenate([rows, np.stack([x, y, -x], axis=1), np.zeros((4, 3))]).tolist()
    runs = [rows[i:i + k] for k in (1, 2, 3, 4) for i in range(0, len(rows) - k, k)]
    for fam in FAMILIES:
        dropped = 0
        for run in runs:
            assert _family_sum(fam, run).hex() == family_sum(fam, run).hex(), run
            dropped += family_sum(fam, run) == 0.0
        assert dropped, "no run had all its terms dropped"


# ---------------------------------------------------------------------------
# grid enumeration


def brute_grid_two_outcome(eps):
    """Independent enumeration of PSD-valid (a, b, c) grid pairs.

    Mirrors the documented lattice: a, c on the eps-grid of [0, 1] and b
    on the eps-grid of [-1/2, 1/2]; both the element and the identity
    residual must be PSD (b^2 <= ac for symmetric nonnegative diagonal).
    """
    keys = set()
    steps = int(round(1 / eps))
    bcount = int(round(1 / eps))
    for ia in range(steps + 1):
        for ic in range(steps + 1):
            for ib in range(bcount + 1):
                a, c = ia * eps, ic * eps
                b = -0.5 + ib * eps
                if b * b > a * c + 1e-12:
                    continue
                if b * b > (1 - a) * (1 - c) + 1e-12:
                    continue
                keys.add((round(a, 9), round(b, 9), round(c, 9)))
    return keys


def test_grid_stream_matches_brute_force_enumeration():
    eps = 0.25
    got = {tuple(round(v, 9) for v in rows[0]) for rows in grid_pairs(eps)}
    want = brute_grid_two_outcome(eps)
    assert got == want


# sha256 of repr(grid_pairs(eps)), recorded when the library streamed
# these POVMs, before the stream was built from the shared grid helper
_GRID_STREAM_SHA256 = {
    1.0: "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    0.5: "84f151b373fc95fffbffadfb1823412ea194b5ce4946d84f055797336410d53a",
    0.3: "3a7ea76f0fea845045df1d85d39185bc2dd8c14174d6e680528a6263536a6e0a",
    0.25: "0d169d8acb4fb729f1ebbe63986126f5b8948524271949e7a462207ea952ed9b",
    0.13: "177a739c47d56056ad142bd4ce27ab5a37811dfce681981f6084d03914f0819d",
    0.1: "014f7072113c8d80c4611a4832072d8cbc47a7be1a2a82000c8922fbcc4d5bfd",
    0.07: "c9b9306fcedbd993e5b746ee2c4355805a98e8c780b47333e7b3cef2ebad2a83",
    0.05: "d76a64c2003772feb604e0428fc4fa77052bfe3e4e215adabee62f0ddd029052",
}


@pytest.mark.parametrize("eps", sorted(_GRID_STREAM_SHA256))
def test_grid_stream_rows_are_pinned(eps):
    rows = repr(grid_pairs(eps))
    assert hashlib.sha256(rows.encode()).hexdigest() == _GRID_STREAM_SHA256[eps]


# ---------------------------------------------------------------------------
# corner correction


def test_corner_correction_at_zero_is_point_value():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_two_outcome(rng)
        for q in QUANTITIES:
            assert corner_corrected_value(p, 0.0, q) == pytest.approx(
                quantity_value(p, q), abs=1e-10
            )


def test_corner_correction_refuses_bad_eps(monkeypatch):
    p = basis_povm(math.pi / 8)
    point = {q: quantity_value(p, q) for q in QUANTITIES}

    def no_eval(*args):
        raise AssertionError("evaluated before refusing eps")

    monkeypatch.setattr(povmsearch, "_eval_family", no_eval)
    monkeypatch.setattr(povmsearch, "_CORNERS", None)     # no corner is built either
    # past 1 a cell spans every entry already: 1e300 gave inf, 1e308 nan
    for eps in (-0.1, -1e-300, math.nan, math.inf, -math.inf,
                math.nextafter(1.0, 2.0), 2.0, 1e300, 1e308):
        with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
            corner_corrected_value(p, eps, "total")
    monkeypatch.undo()
    for q in QUANTITIES:
        assert corner_corrected_value(p, 0.0, q) == pytest.approx(point[q], abs=1e-13)
        assert point[q] <= corner_corrected_value(p, 1.0, q) < math.inf


def test_corner_correction_is_the_net_cell_bound():
    """One POVM's cell bound, from its 8 corners, is bit for bit the net's
    bound for the same base, from the deduplicated corners of 300 cells of
    the coarse level whose base is a POVM."""
    eps = 0.05
    n_a, n_b = _axis_counts(eps)
    net = _net_level(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
    bases = net.bases()
    povms = np.flatnonzero((povmsearch._eigmin_arr(bases) >= 0.0)
                           & (povmsearch._eigmin_arr(povmsearch._IDENTITY - bases) >= 0.0))
    rows = np.random.default_rng(13).choice(povms, size=300, replace=False)
    bases = net.bases(rows)
    for q in QUANTITIES:
        batched = _pair_cells(q, bases, eps, *_corner_points(net.axes, net.ranks[rows]))[0]
        for base, want in zip(bases, batched):
            cell = Povm.from_coords([base, (1 - base[0], -base[1], 1 - base[2])])
            assert corner_corrected_value(cell, eps, q) == want


def test_corner_correction_refuses_many_elements_before_evaluating(monkeypatch):
    rng = np.random.default_rng(14)
    povms = [Povm(tuple(random_povm(rng, k))) for k in (3, 4)]
    point = {(k, q): quantity_value(p, q) for k, p in enumerate(povms) for q in QUANTITIES}
    eye = Povm((np.eye(2),))

    def no_eval(*args):
        raise AssertionError("evaluated before refusing the element count")

    monkeypatch.setattr(povmsearch, "_eval_family", no_eval)
    for p in povms:
        for q in QUANTITIES:
            with pytest.raises(ValueError, match="two-element"):
                corner_corrected_value(p, 0.05, q)
    # eps = 0 is the point value, and one element has no free entry
    for q in QUANTITIES:
        for k, p in enumerate(povms):
            assert corner_corrected_value(p, 0.0, q) == point[k, q]
        assert corner_corrected_value(eye, 0.05, q) == quantity_value(eye, q)


def all_corners_valid(base, eps):
    for da in (0.0, eps):
        for db in (0.0, eps):
            for dc in (0.0, eps):
                m = np.array(
                    [[base[0] + da, base[1] + db], [base[1] + db, base[2] + dc]]
                )
                if np.linalg.eigvalsh(m)[0] < 0:
                    return False
                if np.linalg.eigvalsh(np.eye(2) - m)[0] < 0:
                    return False
    return True


def test_corner_correction_dominates_cell_interior():
    """Cell bound >= value anywhere inside the cell (spot check)."""
    eps = 0.05
    rng = np.random.default_rng(100)
    bases = [rows[0] for rows in grid_pairs(eps)]
    bases = [b for b in bases if all_corners_valid(b, eps)]
    idx = rng.choice(len(bases), size=100, replace=False)
    for i, bi in enumerate(idx):
        base = bases[bi]
        q = QUANTITIES[i % 3]
        bound = corner_corrected_value(Povm.from_coords([base, [1 - base[0], -base[1], 1 - base[2]]]), eps, q)
        for _ in range(20):
            pt = base + rng.uniform(0, eps, size=3)
            p = Povm.from_coords([pt, [1 - pt[0], -pt[1], 1 - pt[2]]])
            assert quantity_value(p, q) <= bound + 1e-12


def test_corner_correction_monotone_in_eps():
    p = basis_povm(math.pi / 8)
    for q in QUANTITIES:
        vals = [corner_corrected_value(p, e, q) for e in (0.0, 0.01, 0.05)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12


# ---------------------------------------------------------------------------
# search


def flat_net_max(eps, quantity):
    best = -math.inf
    for rows in grid_pairs(eps):
        best = max(best, quantity_value(Povm.from_coords(rows), quantity))
    for theta in DISTINGUISHED_ANGLES:
        best = max(best, quantity_value(basis_povm(theta), quantity))
    return best


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_search_matches_flat_enumeration_on_coarse_net(quantity):
    """No-refinement search equals an independent flat scan of the net."""
    report = search_bounds(0.1, 0.1, quantity)
    assert report.raw_max == pytest.approx(flat_net_max(0.1, quantity), abs=1e-12)
    assert report.complete
    assert report.refinement_levels == 0


def test_search_report_invariants():
    report = search_bounds(0.1, 0.05, "total")
    assert report.corrected_bound >= report.raw_max
    assert report.frontier_bound >= report.raw_max - 1e-12
    assert report.corrected_bound == report.slice_bound
    assert report.net_epsilon == pytest.approx(0.05)
    assert report.refinement_levels == 1
    assert report.cells_visited < report.flat_cells
    assert report.argmax_povm is not None
    d = report.as_dict()
    assert "elapsed_s" not in d, "wall time must stay out of the result payload"
    assert d["quantity"] == "total"


@pytest.mark.parametrize("coarse, fine", [
    (0.2, 0.2), (0.2, 0.1), (0.2, 0.05), (0.1, 0.1),
    (0.1, 0.05), (0.1, 0.025), (0.05, 0.05), (0.05, 0.0125),
])
def test_raw_max_is_attained_by_argmax_povm(coarse, fine):
    """raw_max is the value its own argmax_povm attains, bit for bit: the
    net's batched corner kernel may round differently in the last bits."""
    for quantity in QUANTITIES:
        report = search_bounds(coarse, fine, quantity)
        assert report.raw_max == quantity_value(report.argmax_povm, quantity), quantity


def test_search_argument_validation():
    with pytest.raises(ValueError):
        search_bounds(0.05, 0.1, "greater")
    with pytest.raises(ValueError):
        search_bounds(0.1, 0.1, "weirdest")


def test_search_time_budget_partial_report():
    with pytest.raises(ResourceLimitError) as err:
        search_bounds(0.02, 0.0025, "greater", time_budget=1e-6)
    partial = err.value.partial
    assert partial is not None
    assert not partial.complete
    # the deadline is checked before the first block and the flat count;
    # the all-POVM bound needs no stage, so even this report carries it
    assert partial.flat_cells == 0 and partial.cells_visited == 0
    assert partial.corrected_bound == max(_quantity("greater").bound, partial.raw_max)
    assert partial.as_dict()["corrected_bound"] == partial.as_dict()["slice_bound"] is not None


def record_blocks(monkeypatch):
    """Wrap _pair_cells; returns the list of (quantity, eps, bases, points,
    index, result) of each block it bounds."""
    blocks = []
    real = povmsearch._pair_cells

    def record(quantity, bases, eps, points, index):
        out = real(quantity, bases, eps, points, index)
        blocks.append((quantity, eps, bases, points, index, out))
        return out

    monkeypatch.setattr(povmsearch, "_pair_cells", record)
    return blocks


def test_search_deadline_is_checked_before_each_block(monkeypatch):
    # total's last level at the README net spans several blocks
    blocks = record_blocks(monkeypatch)
    search_bounds(0.05, 0.005, "total")
    last_eps = blocks[-1][1]
    level_blocks = sum(eps == last_eps for _, eps, *_ in blocks)
    assert level_blocks >= 3 and blocks[-level_blocks][2].shape[0] == _NET_BLOCK
    # the clock runs out once the first block of that level is bounded
    stop = len(blocks) - level_blocks + 1
    blocks.clear()

    class Clock:
        @staticmethod
        def monotonic():
            return 0.0 if len(blocks) < stop else 10.0

    monkeypatch.setattr(povmsearch, "time", Clock)
    with pytest.raises(ResourceLimitError) as err:
        search_bounds(0.05, 0.005, "total", time_budget=1.0)
    assert len(blocks) == stop, "a block was bounded past the deadline"
    partial = err.value.partial
    assert not partial.complete and partial.frontier_bound == math.inf
    assert partial.net_epsilon == last_eps and partial.refinement_levels == 2
    assert partial.cells_visited == sum(b[2].shape[0] for b in blocks)
    assert partial.flat_cells == 0
    assert partial.corrected_bound == max(_quantity("total").bound, partial.raw_max)


@pytest.mark.parametrize("coarse, fine", [(0.05, 0.005), (0.1, 0.01)])
def test_deduplicated_corners_give_the_same_bits(coarse, fine, monkeypatch):
    """Every level, bounded block by block from each block's distinct corner
    triples, gives bit for bit what all 8N corners of the level give, -inf
    entries included; and the distinct triples are exactly the corners'."""
    blocks = record_blocks(monkeypatch)
    for q in QUANTITIES:
        search_bounds(coarse, fine, q)
    levels = {}
    for q, eps, bases, points, index, out in blocks:
        corners = bases[None, :, :] + eps * _CORNERS[:, None, :]
        assert points.shape[0] == len(np.unique(corners.reshape(-1, 3), axis=0))
        assert np.array_equal(points[index], corners)
        levels.setdefault((q, eps), []).append((bases, out[0], out[1][index]))
    assert max(len(parts) for parts in levels.values()) > 1, "no level spans several blocks"
    for (q, eps), parts in levels.items():
        bases = np.concatenate([b for b, _, _ in parts])
        corr = np.concatenate([c for _, c, _ in parts])
        raw = np.concatenate([r for _, _, r in parts], axis=1)
        corners = (bases[None, :, :] + eps * _CORNERS[:, None, :]).reshape(-1, 3)
        identity = np.arange(corners.shape[0]).reshape(8, -1)
        want_corr, want_raw = _pair_cells(q, bases, eps, corners, identity)
        assert np.array_equal(corr, want_corr)
        assert np.array_equal(raw, want_raw[identity])
    assert any(np.isneginf(out[1]).any() for *_, out in blocks)


@pytest.mark.parametrize("coarse, fine", [(0.05, 0.005), (0.07, 0.01), (0.1, 0.002)])
def test_net_level_order_never_reaches_the_report(coarse, fine, monkeypatch):
    """Every level dealt out in a seeded random order gives the report bytes
    of the order its cells are built in."""
    def payload(q):
        return json.dumps(search_bounds(coarse, fine, q).as_dict(), sort_keys=True)

    want = {q: payload(q) for q in QUANTITIES}
    real, rng = povmsearch._net_level, np.random.default_rng(28)

    def shuffled(*args):
        net = real(*args)
        return net._replace(ranks=net.ranks[rng.permutation(net.ranks.shape[0])])

    monkeypatch.setattr(povmsearch, "_net_level", shuffled)
    for q in QUANTITIES:
        assert payload(q) == want[q], q


def _level_matches_the_dense_build(origins, eps, lo, hi):
    net = _net_level(origins, eps, lo, hi)
    got, want = net.bases(), dense_net_level(origins, eps, lo, hi)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    for j, ax in enumerate(net.axes):
        r = net.ranks[:, j]
        assert np.array_equal(ax.values[ax.up[r]], ax.values[r] + eps)
    return net


@pytest.mark.parametrize("eps", [0.3, 0.13, 0.1, 0.05, 0.01])
def test_coarse_level_matches_the_dense_build(eps):
    """The per-axis build gives the dense build's cells, in its order and to
    the bit, and ranks each base value's x + eps to that float."""
    n_a, n_b = _axis_counts(eps)
    net = _level_matches_the_dense_build(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
    assert net.ranks.shape[0] > 0


def test_refinement_levels_match_the_dense_build():
    # (0.13, 0.011) refines by 2, 2 and 3, and no step divides 1: children
    # land past a = 1 and c = 1.  Each level takes a seeded random half of
    # the one before as origins; then 200 origins anywhere near the net,
    # and none.  No axis holds more than 4 / eps values (6 / eps on b).
    rng = np.random.default_rng(32)
    eps = 0.13
    n_a, n_b = _axis_counts(eps)
    net = _level_matches_the_dense_build(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
    for s in _refine_steps(0.13, 0.011):
        bases = net.bases()
        eps /= s
        origins = bases[rng.random(bases.shape[0]) < 0.5]
        net = _level_matches_the_dense_build(origins, eps, (0, 0, 0), (s, s, s))
        assert origins.shape[0] < net.ranks.shape[0] < origins.shape[0] * s**3
        sizes = [ax.values.size for ax in net.axes]
        assert max(sizes[0], sizes[2]) < 4 / eps and sizes[1] < 6 / eps
    origins = rng.uniform((-0.05, -0.55, -0.05), (1.05, 0.55, 1.05), (200, 3))
    assert _level_matches_the_dense_build(origins, 0.011, (0, 0, 0), (5, 5, 5)).ranks.size
    net = _level_matches_the_dense_build(origins[:0], 0.011, (0, 0, 0), (5, 5, 5))
    assert net.ranks.shape == (0, 3)


def test_search_refuses_a_level_whose_corner_keys_could_pass_int64(monkeypatch):
    # blocks of 2^50 cells take 53 of a key's 63 bits for corner places,
    # and the README coarse level's three axes need more than the other 10
    monkeypatch.setattr(povmsearch, "_NET_BLOCK", 2**50)
    with pytest.raises(ResourceLimitError, match="-bit corner keys, past 10$") as err:
        search_bounds(0.05, 0.005, "total")
    partial = err.value.partial
    assert not partial.complete and partial.cells_visited == 0


def test_bound_report_refuses_a_bound_below_raw_max():
    # search_bounds reports max(bound, raw_max), so equality is the least
    # it can report and one ulp less is refused
    report = search_bounds(0.1, 0.1, "greater")
    at = dataclasses.replace(report, corrected_bound=report.raw_max)
    assert at.corrected_bound == at.slice_bound == report.raw_max
    with pytest.raises(InvariantViolationError, match="below raw max"):
        dataclasses.replace(report, corrected_bound=math.nextafter(report.raw_max, 0.0))


def test_net_memory_is_bounded_by_its_blocks():
    # one level of 548 196 cells: bounding every corner at once peaked
    # at about 565 MiB under tracemalloc.  Bounded in blocks, the peak is
    # building the coarse level, 548 196 kept cells of 10^6 at the 52
    # bytes a kept cell that _MAX_NET_CELLS states (27.2 MiB); a block's
    # corner temporaries stay under a MiB, and the ceiling leaves 4 MiB
    # over the level
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        report = search_bounds(0.01, 0.01, "total")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cells_visited == 548_196
    assert peak < 548_196 * 52 + 4 * 2**20


@pytest.mark.parametrize("kwargs", [
    dict(eps_coarse=0.02, eps_fine=0.0025, time_budget=1e-6),
    dict(eps_coarse=0.001, eps_fine=0.001),
    dict(eps_coarse=0.25, eps_fine=1e-5),
], ids=["time-budget", "net-level", "flat-cell-table"])
def test_every_search_limit_carries_a_partial_report(kwargs):
    with pytest.raises(ResourceLimitError) as err:
        search_bounds(**kwargs)
    partial = err.value.partial
    assert not partial.complete and partial.frontier_bound == math.inf
    assert partial.net_epsilon == kwargs["eps_coarse"]
    assert partial.corrected_bound == max(_quantity("greater").bound, partial.raw_max)
    assert partial.as_dict()["frontier_bound"] is None


@pytest.mark.parametrize("coarse, fine, message", [
    (0.001, 0.001, "net level at step 0.001 has 1000000000 cells"),
    (0.05, 1e-4, "table of 100000000 cells"),
])
def test_search_refuses_oversized_nets_before_allocating(coarse, fine, message, monkeypatch):
    # 10^9 coarse cells, then 10^8 (a, c) cells for the flat count: either
    # would take gigabytes, and the refusal, partial report included, takes
    # under 1 MiB
    def never(*args):
        raise AssertionError("allocated before the size guard")

    monkeypatch.setattr(povmsearch, "_count_flat_cells", never)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with pytest.raises(ResourceLimitError, match=message):
            search_bounds(coarse, fine, "greater")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_search_refuses_an_oversized_refinement_level(monkeypatch):
    # total's second level at the README net would hold 76 500 cells
    monkeypatch.setattr(povmsearch, "_MAX_NET_CELLS", 50_000)
    with pytest.raises(ResourceLimitError) as err:
        search_bounds(0.05, 0.005, "total")
    assert str(err.value) == "net level at step 0.005 has 76500 cells, past 50000"
    partial = err.value.partial
    assert not partial.complete and partial.frontier_bound == math.inf
    assert partial.refinement_levels == 2 and partial.cells_visited == 7192
    assert partial.net_epsilon == 0.05 / 2 / 5 and partial.flat_cells == 0


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_search_runs_through_empty_refinement_levels(quantity, monkeypatch):
    """A level whose origins were all pruned bounds nothing and leaves the
    incumbent as the frontier; the schedule still runs to eps_fine."""
    coarse, fine = 0.1, 0.01
    want = search_bounds(coarse, fine, quantity)
    real, levels = povmsearch._net_level, []

    def pruned(origins, eps, lo, hi):
        # the coarse level as it is, every later one with no origin left
        levels.append(eps)
        return real(origins if len(levels) == 1 else origins[:0], eps, lo, hi)

    monkeypatch.setattr(povmsearch, "_net_level", pruned)
    report = search_bounds(coarse, fine, quantity)
    steps = _refine_steps(coarse, fine)
    assert len(levels) == 1 + len(steps) > 1
    assert report.complete
    assert abs(report.frontier_bound - report.raw_max) <= 1e-12
    assert report.refinement_levels == len(steps)
    assert report.net_epsilon == want.net_epsilon


# sha256 of json.dumps(search_bounds(coarse, fine, q).as_dict(), sort_keys=True),
# recorded before the net was built from the shared grid helper.  Neither
# step divides 1, so refinement children land past a = 1 and c = 1.
_NET_PAYLOAD_SHA256 = {
    (0.3, 0.1, "greater"): "63fcb512a7b59e58ebe6581fb81ae99d6ad1df2b88c6aa89122e2c24b196fa7d",
    (0.3, 0.1, "total"): "ef8fcc2d633fee10112ee69c3503de90ab559867487abcb78559e301eccafbbf",
    (0.3, 0.1, "conditional"): "7e6fa713ee21bb63d0533ae7af13a990cf8c6d1579f09ce46a6c7ba205e76b7c",
    (0.13, 0.011, "greater"): "b930c123566db8a9d64e1717f72aefe3d4530ea65a292e6423ee3cf962845a4c",
    (0.13, 0.011, "total"): "ac40a4debeb09248dbd957663de6355ef134e9b172a5b4d614d5a9186da28305",
    (0.13, 0.011, "conditional"):
        "de832c9f6cbab90f958f2cc28913c2030c1db6659d06149fff310ef741936a74",
    (0.07, 0.01, "greater"): "3134d14bc0ada78bff2efb32ae4bcfec1b82ae260c2536cf766f798a4040d5c6",
    (0.07, 0.01, "total"): "fa01cf2ab8f14b7192f53323a5ad670092fbb4a29cd74db4b3a2008c123d573c",
    (0.07, 0.01, "conditional"): "fa607544cb073914117f20fa23e04075585474df8b82f6747840c4b7e7a33df5",
}


@pytest.mark.parametrize("coarse, fine, quantity", list(_NET_PAYLOAD_SHA256))
def test_search_payload_is_pinned_on_nets_past_one(coarse, fine, quantity):
    report = search_bounds(coarse, fine, quantity)
    text = json.dumps(report.as_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _NET_PAYLOAD_SHA256[coarse, fine, quantity]
    # exactly, with no tolerance: the benchmark's certify check reads it so
    assert report.raw_max <= report.corrected_bound == max(_quantity(quantity).bound,
                                                           report.raw_max)


def _expand(scale, *factors) -> list:
    return [Fraction(scale) * c for c in poly_mul(*factors)]


_T, _T_MINUS_1, _T_PLUS_1, _T2_PLUS_1 = [0, 1], [-1, 1], [1, 1], [1, 0, 1]

# per quantity: the maximum K on the pure states of the families its bound
# reads, the factored p(t) of each family, and (c, x) with the all-POVM
# maximum c log2(x): log2(2K) for greater, 2 log2(K) for total by AM-GM,
# log2(2K) - 2 for conditional
SLICE_MAXIMA = {
    "greater": (Fraction(3, 4), {"f0": _expand(1, _T, _T),
                                 "f1": _expand(Fraction(1, 4), _T_MINUS_1, _T_MINUS_1,
                                               _T_PLUS_1, _T_PLUS_1)},
                (1, Fraction(3, 2))),
    "total": (Fraction(5, 4), {"f01": []}, (2, Fraction(5, 4))),
    "conditional": (Fraction(3), {"g0": _expand(Fraction(1, 2), _T, _T, _T2_PLUS_1),
                                  "g1": _expand(Fraction(1, 8), _T_MINUS_1, _T_MINUS_1,
                                                _T_PLUS_1, _T_PLUS_1, _T2_PLUS_1)},
                    (1, Fraction(3, 2))),
}


def _trimmed(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_slice_maxima_are_polynomial_identities(quantity):
    """From the encoding's exact states, each family's p(t) is its stated
    factorization, coefficient by coefficient: >= 0 for every real t, and
    0 at some t, so F peaks at exactly K on the pure states.  Every D_g is
    positive and the t^(2G+2) coefficient, which decides the state (0, 1),
    is >= 0.  So the quantity's bound is the least double at or above the
    maximum that K gives."""
    k, factored, (c, x) = SLICE_MAXIMA[quantity]
    families = exact_families()
    for name, want in factored.items():
        groups = families[name]
        p, dens = slice_polynomial(groups, k)
        assert _trimmed(p) == _trimmed(want), name
        for w0, w1, w2 in dens:
            # w0 + w1 t + w2 t^2 > 0 for every real t
            assert w2.sign() > 0 and (w1 * w1 - 4 * w0 * w2).sign() < 0, name
        assert len(p) == 2 * len(groups) + 3 and p[-1].sign() >= 0, name
    assert _quantity(quantity).bound == least_double_at_or_above(*log2_enclosure(c, x))


def test_family_rows_round_the_exact_states():
    # the oracle's angles are the encoding's, and f01 is f0's group then
    # f1's, so these four families hold every row
    assert {xy: k * math.pi / 8 for xy, k in EIGHTHS.items()} == ENCODING_ANGLES
    exact = exact_families()
    for name in ("f0", "f1", "g0", "g1"):
        fam = getattr(povmsearch, f"_FAM_{name.upper()}")
        assert len(fam.flat) == len(exact[name])
        for row, (nums, den) in zip(fam.flat, exact[name]):
            # flat[0:3] and flat[3:6] are the numerator rows, flat[6:9] the denominator's
            assert len(row) == 9 and len(nums) == 2
            for got, want in zip((row[0:3], row[3:6], row[6:9]), (*nums, den)):
                # each entry within 2 ulps of its row's largest entry, the
                # scale of its rounding error (an exact 0 may come out as
                # 1e-16), decided in Q(sqrt 2)
                tol = 2 * Fraction(math.ulp(max(map(abs, got))))
                for f, e in zip(got, want):
                    gap = e - Fraction(f)
                    assert (gap - tol).sign() <= 0 <= (gap + tol).sign(), name


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_bound_literals_round_the_maxima_up(quantity):
    """Each bound literal lies at or above a Fraction enclosure of the exact
    maximum c log2(x), and its predecessor lies below it."""
    _, _, (c, x) = SLICE_MAXIMA[quantity]
    lo, hi = log2_enclosure(c, x)
    assert 0 < hi - lo < Fraction(1, 10**30)
    assert abs(float(lo) - c * math.log2(x)) <= 2 * math.ulp(float(lo))
    bound = _quantity(quantity).bound
    assert Fraction(bound) >= hi
    assert Fraction(math.nextafter(bound, -math.inf)) < lo


def test_corrected_bounds_are_the_exact_maxima():
    # the bound literal, or raw_max where the point evaluator reads it a
    # few ulps above; every one sits within the looser reference figures
    for q in QUANTITIES:
        report = search_bounds(0.2, 0.2, q)
        assert report.corrected_bound == report.slice_bound
        assert report.corrected_bound == max(_quantity(q).bound, report.raw_max)
        assert report.corrected_bound - _quantity(q).bound <= 4 * math.ulp(0.5)
        assert report.slice_cells == 0 and report.slice_epsilon == 0.0
        assert report.corrected_bound <= REFERENCE_SETS["0.59/0.59/0.65"][q]


@pytest.mark.parametrize("quantity, k", [("greater", 0.75), ("total", 1.25), ("conditional", 3.0)])
def test_sampled_pure_states_peak_at_k(quantity, k):
    # independent oracle: F straight from the encoded density matrices at
    # 10^5 evenly spaced pure states reaches K and never exceeds it
    rho = {(x, y): density_matrix(qrac_encode(x, y)) for x in (0, 1) for y in (0, 1)}
    avg_b1 = {x: (rho[x, 0] + rho[x, 1]) / 2 for x in (0, 1)}
    avg_b0 = {y: (rho[0, y] + rho[1, y]) / 2 for y in (0, 1)}
    u = np.linspace(0.0, 2 * math.pi, 100_000, endpoint=False)
    psi = np.stack([np.cos(u / 2), np.sin(u / 2)], axis=-1)

    def tr(m):
        return np.einsum("ni,ij,nj->n", psi, m, psi)

    if quantity == "greater":
        fs = [sum(tr(avg_b1[x]) ** 2 for x in (0, 1)), sum(tr(avg_b0[y]) ** 2 for y in (0, 1))]
    elif quantity == "total":
        fs = [sum(tr(m) ** 2 for m in (*avg_b1.values(), *avg_b0.values()))]
    else:
        fs = [sum(sum(tr(rho[x, y]) ** 2 for x in (0, 1)) / tr(avg_b0[y]) for y in (0, 1)),
              sum(sum(tr(rho[x, y]) ** 2 for y in (0, 1)) / tr(avg_b1[x]) for x in (0, 1))]
    assert abs(max(f.max() for f in fs) - k) <= 1e-12


@pytest.mark.parametrize("eps", [0.25, 0.1, 0.05, 0.02])
def test_flat_cell_count_matches_enumeration(eps):
    n_a, n_b = _axis_counts(eps)
    coarse = _net_level(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
    assert _count_flat_cells(eps) == coarse.ranks.shape[0]


def test_reference_set_support_flags():
    report = search_bounds(0.2, 0.2, "greater")
    assert set(report.supports) == set(REFERENCE_SETS)
    for name, flag in report.supports.items():
        assert flag == (report.corrected_bound <= REFERENCE_SETS[name]["greater"] + 1e-12)
    assert report.supports["0.59/0.59/0.65"] is True


# ---------------------------------------------------------------------------
# independent cross-checks


def test_rank_one_crosscheck_anchors_and_ordering():
    """Sampled rank-one POVMs of two to four elements, scored through
    collinfo on their exact outcome tables: each value is attained, so none
    may pass the certified bound."""
    best = rank_one_lower_bounds(samples=2000, seed=1)
    assert set(best) == set(QUANTITIES)
    assert best["greater"] >= LOG2_3_2 - 1e-9
    assert best["total"] >= LOG2_5_4_X2 - 1e-9
    for q in QUANTITIES:
        upper = search_bounds(0.2, 0.2, q)
        assert best[q] <= upper.corrected_bound + 1e-9


def test_outcome_table_is_born_rule():
    """t[x, y, o] = Tr[M_o rho_xy]: on basis POVMs it equals measure_prob on
    the encoded state, and on any POVM each (x, y) row is a distribution."""
    for theta in (0.0, math.pi / 8, 0.3, math.pi / 4, 1.2):
        t = _outcome_table(basis_povm(theta))[1]
        for x in (0, 1):
            for y in (0, 1):
                want = measure_prob(qrac_encode(x, y), theta)
                assert np.abs(t[x, y] - want).max() <= 1e-15
    rng = np.random.default_rng(7)
    trine = Povm(tuple(
        (2 / 3) * np.outer(v, v)
        for v in ([math.cos(a), math.sin(a)] for a in (0.0, math.pi / 3, 2 * math.pi / 3))
    ))
    for povm in [trine] + [random_two_outcome(rng) for _ in range(20)]:
        t = _outcome_table(povm)[1]
        assert t.shape == (2, 2, len(povm.elements))
        assert t.min() >= -1e-12
        assert np.abs(t.sum(axis=2) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("elements", [
    (np.array([[1.0, 0.5], [0.0, 0.0]]), np.array([[0.0, -0.5], [0.0, 1.0]])),   # not symmetric
    (np.eye(3),),                                                                 # not 2x2
])
def test_refusals_name_their_cause(elements):
    with pytest.raises(InvariantViolationError) as info:
        Povm(elements)
    assert "elements must be symmetric 2x2" in str(info.value)
