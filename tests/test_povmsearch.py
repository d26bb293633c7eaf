"""Measurement-leakage search: point values, cell bounds, certificates."""

import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from oracles import rank_one_lower_bounds
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
    grid_extremal_povms,
    quantity_value,
    search_bounds,
    value_from_info,
    verify_convexity_fact,
)
from otmbench.povmsearch import (
    _MAX_NET_CELLS,
    _NET_BLOCK,
    _axis_counts,
    _combine,
    _corner_deltas,
    _corner_points,
    _count_flat_cells,
    _eval_family,
    _net_level,
    _outcome_table,
    _pair_cells,
    _quantity,
    _slice_certificate,
)
from otmbench.qrac import BasisMeasurement, measure_prob, qrac_encode

LOG2_3_2 = math.log2(1.5)
LOG2_5_4_X2 = 2 * math.log2(1.25)


def basis_povm(theta):
    return Povm(BasisMeasurement(theta).projectors())


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
    q = Povm.from_coords(p.coords())
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
        assert p.key() == r.key()
        assert p.as_lists() == r.as_lists()
        for q in QUANTITIES:
            fast = quantity_value(p, q)
            sums = [_eval_family(fam, p.coords())[0].sum() for fam in _quantity(q).fams]
            assert abs(fast - float(_combine(q, *sums))) <= 1e-13
            assert quantity_value(r, q) == fast


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
    got = {
        tuple(round(v, 9) for v in p.coords()[0]) for p in grid_extremal_povms(eps, 2)
    }
    want = brute_grid_two_outcome(eps)
    assert got == want


def test_grid_stream_deterministic():
    a = [p.key() for p in grid_extremal_povms(0.5, 2)]
    b = [p.key() for p in grid_extremal_povms(0.5, 2)]
    assert a == b
    assert len(a) == len(set(a)), "stream must not repeat cells"


# sha256 of repr([p.key() for p in grid_extremal_povms(eps, 2)]), recorded
# before the stream was built from the shared grid helper
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
    rows = repr([p.key() for p in grid_extremal_povms(eps, 2)])
    assert hashlib.sha256(rows.encode()).hexdigest() == _GRID_STREAM_SHA256[eps]


def test_grid_stream_refuses_bad_steps_before_listing(monkeypatch):
    def never(*args):
        raise AssertionError("listed grid values before refusing the step")

    monkeypatch.setattr(povmsearch, "_grid", never)
    for eps in (math.inf, math.nan, -math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="grid step"):
            next(grid_extremal_povms(eps, 2))
    # 272**3 grid points, just past the limit, and on down to a step
    # whose 1/eps overflows
    assert 271**3 <= _MAX_NET_CELLS < 272**3
    for eps in (1 / 271, 1e-3, 1e-300, 5e-324):
        with pytest.raises(ResourceLimitError, match="points"):
            next(grid_extremal_povms(eps, 2))


def test_grid_stream_elements_are_valid_povms():
    for outcomes in (1, 2):
        seen = 0
        for p in grid_extremal_povms(0.5, outcomes):
            assert len(p.elements) == outcomes
            seen += 1
        assert seen > 0
    # the arc certificate bounds every element count, so no stage lists more
    for outcomes in (0, 3, 4):
        with pytest.raises(ValueError, match="outcomes"):
            next(grid_extremal_povms(0.5, outcomes))


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
    for eps in (-0.1, -1e-300, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps"):
            corner_corrected_value(p, eps, "total")
    monkeypatch.undo()
    for q in QUANTITIES:
        assert corner_corrected_value(p, 0.0, q) == pytest.approx(point[q], abs=1e-13)


def test_corner_correction_is_the_net_cell_bound():
    """One POVM's cell bound, from its 8 corners, is bit for bit the net's
    bound for the same base, from the deduplicated corners of 300 cells."""
    eps = 0.05
    bases = np.array([p.coords()[0] for p in grid_extremal_povms(eps, 2)])
    bases = bases[np.random.default_rng(13).choice(len(bases), size=300, replace=False)]
    for q in QUANTITIES:
        batched = _pair_cells(q, bases, eps, *_corner_points(bases, eps))[0]
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
    bases = [p.coords()[0] for p in grid_extremal_povms(eps, 2)]
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
    for p in grid_extremal_povms(eps, 2):
        best = max(best, quantity_value(p, quantity))
    for theta in DISTINGUISHED_ANGLES:
        best = max(best, quantity_value(basis_povm(theta), quantity))
    return best


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_search_matches_flat_enumeration_on_coarse_net(quantity):
    """No-refinement search equals an independent flat scan of the net."""
    report = search_bounds(0.1, 0.1, quantity, slice_eps=0.01)
    assert report.raw_max == pytest.approx(flat_net_max(0.1, quantity), abs=1e-12)
    assert report.complete
    assert report.refinement_levels == 0


def test_search_report_invariants():
    report = search_bounds(0.1, 0.05, "total", slice_eps=0.01)
    assert report.corrected_bound >= report.raw_max - 1e-12
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
        report = search_bounds(coarse, fine, quantity, slice_eps=0.01)
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
    # the deadline is checked before the arc certificate and the flat count
    assert partial.slice_cells == 0 and partial.flat_cells == 0


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
    search_bounds(0.05, 0.005, "total", slice_eps=0.01)
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
        search_bounds(0.05, 0.005, "total", time_budget=1.0, slice_eps=0.01)
    assert len(blocks) == stop, "a block was bounded past the deadline"
    partial = err.value.partial
    assert not partial.complete and partial.frontier_bound == math.inf
    assert partial.net_epsilon == last_eps and partial.refinement_levels == 2
    assert partial.cells_visited == sum(b[2].shape[0] for b in blocks)
    assert partial.slice_cells > 0 and partial.flat_cells == 0


@pytest.mark.parametrize("coarse, fine", [(0.05, 0.005), (0.1, 0.01)])
def test_deduplicated_corners_give_the_same_bits(coarse, fine, monkeypatch):
    """Every level, bounded block by block from each block's distinct corner
    triples, gives bit for bit what all 8N corners of the level give, -inf
    entries included; and the distinct triples are exactly the corners'."""
    blocks = record_blocks(monkeypatch)
    for q in QUANTITIES:
        search_bounds(coarse, fine, q, slice_eps=0.01)
    levels = {}
    for q, eps, bases, points, index, out in blocks:
        corners = bases[None, :, :] + _corner_deltas(eps)[:, None, :]
        assert points.shape[0] == len(np.unique(corners.reshape(-1, 3), axis=0))
        assert np.array_equal(points[index], corners)
        levels.setdefault((q, eps), []).append((bases, out))
    assert max(len(parts) for parts in levels.values()) > 1, "no level spans several blocks"
    for (q, eps), parts in levels.items():
        bases = np.concatenate([b for b, _ in parts])
        corr = np.concatenate([out[0] for _, out in parts])
        raw = np.concatenate([out[1] for _, out in parts], axis=1)
        corners = (bases[None, :, :] + _corner_deltas(eps)[:, None, :]).reshape(-1, 3)
        identity = np.arange(corners.shape[0]).reshape(8, -1)
        want_corr, want_raw = _pair_cells(q, bases, eps, corners, identity)
        assert np.array_equal(corr, want_corr)
        assert np.array_equal(raw, want_raw)
    assert any(np.isneginf(out[1]).any() for *_, out in blocks)


def test_net_memory_is_bounded_by_its_blocks():
    # one level of 548 196 cells: bounding every corner at once peaked
    # at about 565 MiB under tracemalloc
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        report = search_bounds(0.01, 0.01, "total", slice_eps=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.cells_visited == 548_196
    assert peak < 160 * 2**20


@pytest.mark.parametrize("coarse, fine, message", [
    (0.001, 0.001, "net level at step 0.001 has 1000000000 cells"),
    (0.05, 1e-4, "table of 100000000 cells"),
])
def test_search_refuses_oversized_nets_before_allocating(coarse, fine, message, monkeypatch):
    # 10^9 coarse cells, then 10^8 (a, c) cells for the flat count
    def never(*args):
        raise AssertionError("allocated before the size guard")

    for name in ("_slice_certificate", "_grid", "_count_flat_cells"):
        monkeypatch.setattr(povmsearch, name, never)
    with pytest.raises(ResourceLimitError, match=message):
        search_bounds(coarse, fine, "greater")


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


# sha256 of json.dumps(search_bounds(coarse, fine, q).as_dict(), sort_keys=True),
# recorded before the net was built from the shared grid helper.  Neither
# step divides 1, so refinement children land past a = 1 and c = 1.
_NET_PAYLOAD_SHA256 = {
    (0.3, 0.1, "greater"): "188f84dcfde6d3086fc8f02cd911aa4c77e7be0802c215139fd6b06126b62846",
    (0.3, 0.1, "total"): "17abe5d102c4634e4a06d873a5ef3bcc8a817db5c847a359870fa8a14d317c15",
    (0.3, 0.1, "conditional"): "3b6f87036cf77d53a1c6c0cb3450e5b7117605ce69b463f85171c207b24f207c",
    (0.13, 0.011, "greater"): "2c0c65e7a2a46a641ae38a7d9b8d36e98023cf1cc3234452194793723eb4c14a",
    (0.13, 0.011, "total"): "bfa8e1fcccf015adae2ce3c4c1cd529f58f8642b01cbf2ebb13bf3d650fb4bfc",
    (0.13, 0.011, "conditional"):
        "9a7dcad1aa1ac804a0024c632f30de599eb41277fd656000542d18202968672b",
    (0.07, 0.01, "greater"): "4721659d180f0a229c86a89ce4d3141a2ac43fac71b9a5baaa69dad24db0509a",
    (0.07, 0.01, "total"): "40e1d0770df5921279f80cdf91d87809c0ce580525cfbc123253bcc527c1f389",
    (0.07, 0.01, "conditional"): "3df6339f9bae4784ddecb1c6068f8f13d48d14b1f186c8af8cfa33623cb5f828",
}


@pytest.mark.parametrize("coarse, fine, quantity", list(_NET_PAYLOAD_SHA256))
def test_search_payload_is_pinned_on_nets_past_one(coarse, fine, quantity):
    text = json.dumps(search_bounds(coarse, fine, quantity).as_dict(), sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _NET_PAYLOAD_SHA256[coarse, fine, quantity]


def test_slice_certificate_values():
    # the slice bound covers every element count, so it must sit above
    # each achieved value and below the loosest published figure
    g = search_bounds(0.2, 0.2, "greater", slice_eps=0.002)
    assert LOG2_3_2 - 1e-9 <= g.slice_bound <= 0.59
    t = search_bounds(0.2, 0.2, "total", slice_eps=0.002)
    assert LOG2_5_4_X2 - 1e-9 <= t.slice_bound <= 0.67
    c = search_bounds(0.2, 0.2, "conditional", slice_eps=0.002)
    assert LOG2_3_2 - 1e-9 <= c.slice_bound <= 0.59


@pytest.mark.parametrize("quantity, closed_form", [
    ("greater", 1 + math.log2(0.75)),
    ("total", 2 * math.log2(1.25)),
    ("conditional", -1 + math.log2(3)),
])
def test_arc_certificate_against_closed_forms(quantity, closed_form):
    bound, k, arcs = _slice_certificate(quantity, 5e-4)
    assert arcs % 4 == 0
    assert -1e-12 <= bound - closed_form <= 1e-6
    # independent oracle: F straight from the encoded density matrices at
    # 10^5 evenly spaced pure states never exceeds the certified maximum
    rho = {(x, y): qrac_encode(x, y).density_matrix() for x in (0, 1) for y in (0, 1)}
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
    assert max(f.max() for f in fs) <= k + 1e-12


@pytest.mark.parametrize("eps", [0.25, 0.1, 0.05, 0.02])
def test_flat_cell_count_matches_enumeration(eps):
    n_a, n_b = _axis_counts(eps)
    coarse = _net_level(np.zeros((1, 3)), eps, (0, -n_b, 0), (n_a, n_b, n_a))
    assert _count_flat_cells(eps) == coarse.shape[0]


def test_reference_set_support_flags():
    report = search_bounds(0.2, 0.2, "greater", slice_eps=0.002)
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
        upper = search_bounds(0.2, 0.2, q, slice_eps=0.002)
        assert best[q] <= upper.corrected_bound + 1e-9


def test_convexity_fact_zero_violations():
    report = verify_convexity_fact(trials=5000, seed=3)
    assert report.trials == 5000
    assert report.violations == 0
    assert report.max_excess <= 1e-10


def test_outcome_table_is_born_rule():
    """t[x, y, o] = Tr[M_o rho_xy]: on basis POVMs it equals measure_prob on
    the encoded state, and on any POVM each (x, y) row is a distribution."""
    for theta in (0.0, math.pi / 8, 0.3, math.pi / 4, 1.2):
        t = _outcome_table(basis_povm(theta))
        meas = BasisMeasurement(theta)
        for x in (0, 1):
            for y in (0, 1):
                want = measure_prob(qrac_encode(x, y), meas)
                assert np.abs(t[x, y] - want).max() <= 1e-15
    rng = np.random.default_rng(7)
    trine = Povm(tuple(
        (2 / 3) * np.outer(v, v)
        for v in ([math.cos(a), math.sin(a)] for a in (0.0, math.pi / 3, 2 * math.pi / 3))
    ))
    for povm in [trine] + [random_two_outcome(rng) for _ in range(20)]:
        t = _outcome_table(povm)
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
