"""Single-qubit encoding and measurement statistics."""

import itertools
import math

import numpy as np
import pytest

from otmbench.qrac import (
    ENCODING_ANGLES,
    READOUT_P0,
    density_matrix,
    measure_prob,
    qrac_encode,
    qrac_success_table,
)
from otmbench.f2codes import random_code
from otmbench.protocol import OtrmInstance, otrm_read

COS2_PI8 = math.cos(math.pi / 8) ** 2


def test_success_table_all_eight_entries():
    table = qrac_success_table()
    assert len(table) == 8
    for key, p in table.items():
        assert abs(p - COS2_PI8) <= 1e-12, f"{key}: {p}"


def test_encoding_angles_table():
    want = {
        (0, 0): math.pi / 8,
        (0, 1): -math.pi / 8,
        (1, 0): 3 * math.pi / 8,
        (1, 1): 5 * math.pi / 8,
    }
    assert set(ENCODING_ANGLES) == set(want)
    for bits, theta in want.items():
        assert ENCODING_ANGLES[bits] == pytest.approx(theta, abs=1e-15)
        # the same state up to global sign: the angles differ by a multiple of pi
        assert math.cos(qrac_encode(*bits) - theta) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_encoded_states_pairwise_distinct():
    states = [qrac_encode(x, y) for x, y in itertools.product((0, 1), repeat=2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert math.cos(states[i] - states[j]) ** 2 < 1.0 - 1e-12


def test_density_matrix_properties():
    for x, y in itertools.product((0, 1), repeat=2):
        rho = density_matrix(qrac_encode(x, y))
        assert rho.shape == (2, 2)
        assert np.allclose(rho, rho.T)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
        # rank one: rho^2 == rho
        assert np.allclose(rho @ rho, rho, atol=1e-14)


def test_readout_table_is_measure_prob():
    # bit alpha is read in the basis at angle 0 (b0) or pi/4 (b1); the
    # table holds measure_prob's P(outcome 0) there, bit for bit, and
    # cannot be written
    assert READOUT_P0.shape == (2, 2, 2) and READOUT_P0.dtype == np.float64
    for alpha, phi in ((0, 0.0), (1, math.pi / 4)):
        for b0, b1 in itertools.product((0, 1), repeat=2):
            p0 = measure_prob(qrac_encode(b0, b1), phi)[0]
            assert READOUT_P0[alpha, b0, b1] == p0, (alpha, b0, b1)
    with pytest.raises(ValueError):
        READOUT_P0[0, 0, 0] = 1.0


def test_measure_prob_born_rule():
    """Outcome 0 probability is cos^2 of the angle between state and basis."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        phi, theta = rng.uniform(-math.pi, math.pi, size=2)
        p0, p1 = measure_prob(phi, theta)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        assert p0 == pytest.approx(math.cos(phi - theta) ** 2, abs=1e-12)


def _all_zero_instance(n=12, k=3):
    """An instance whose secrets are zero, so every qubit is the state of
    (0, 0) and a read of either bit draws n outcomes of that one state."""
    zeros = np.zeros(k, dtype=np.uint8)
    return OtrmInstance(random_code(n, k, 1), random_code(n, k, 2), zeros, zeros)


def test_sample_measurements_frequency():
    # reads draw against READOUT_P0: outcome 0 comes at the Born rule rate
    # of the (0, 0) state in each readout basis
    inst = _all_zero_instance()
    for alpha, phi in ((0, 0.0), (1, math.pi / 4)):
        p0 = measure_prob(qrac_encode(0, 0), phi)[0]
        words = np.array([otrm_read(inst, alpha, seed).word for seed in range(1700)])
        zeros = int((words == 0).sum())
        sigma = math.sqrt(p0 * (1 - p0) / words.size)
        assert abs(zeros / words.size - p0) <= 4 * sigma, alpha


def test_sample_measurements_deterministic_for_seed():
    inst = OtrmInstance(random_code(10, 2, 3), random_code(10, 2, 4),
                        np.array([1, 0], dtype=np.uint8), np.array([0, 1], dtype=np.uint8))
    for alpha in (0, 1):
        a = otrm_read(inst, alpha, seed=99).word
        b = otrm_read(inst, alpha, seed=99).word
        assert a.dtype == np.uint8 and a.shape == (10,)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bits", [(2, 0), (0, -1), (0.5, 1)])
def test_refusals_name_their_cause(bits):
    with pytest.raises(ValueError) as info:
        qrac_encode(*bits)
    assert f"bits must be 0/1, got {bits}" in str(info.value)
