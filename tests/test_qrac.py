"""Single-qubit encoding and measurement statistics."""

import itertools
import math

import numpy as np
import pytest

from otmbench.qrac import (
    ENCODING_ANGLES,
    BasisMeasurement,
    QubitState,
    measure_prob,
    measurement_for,
    qrac_encode,
    qrac_success_table,
    sample_measurements,
)

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
        assert math.cos(qrac_encode(*bits).theta - theta) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_encoded_states_pairwise_distinct():
    states = [qrac_encode(x, y) for x, y in itertools.product((0, 1), repeat=2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert math.cos(states[i].theta - states[j].theta) ** 2 < 1.0 - 1e-12


def test_density_matrix_properties():
    for x, y in itertools.product((0, 1), repeat=2):
        rho = qrac_encode(x, y).density_matrix()
        assert rho.shape == (2, 2)
        assert np.allclose(rho, rho.T)
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
        # rank one: rho^2 == rho
        assert np.allclose(rho @ rho, rho, atol=1e-14)


def test_measurement_projectors_complete_and_orthogonal():
    for theta in (0.0, math.pi / 4, 0.3, 1.2):
        p0, p1 = BasisMeasurement(theta).projectors()
        assert np.allclose(p0 + p1, np.eye(2), atol=1e-14)
        assert np.allclose(p0 @ p1, 0.0, atol=1e-14)
        assert np.allclose(p0 @ p0, p0, atol=1e-14)


def test_measurement_for_bases():
    assert measurement_for(0).theta == 0.0
    assert measurement_for(1).theta == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        measurement_for(2)


def test_measure_prob_born_rule():
    """Outcome 0 probability is cos^2 of the angle between state and basis."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        phi, theta = rng.uniform(-math.pi, math.pi, size=2)
        p0, p1 = measure_prob(QubitState(phi), BasisMeasurement(theta))
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)
        assert p0 == pytest.approx(math.cos(phi - theta) ** 2, abs=1e-12)


def test_sample_measurements_frequency():
    state = qrac_encode(0, 0)
    meas = measurement_for(0)
    p0 = measure_prob(state, meas)[0]
    rng = np.random.default_rng(12345)
    n = 20_000
    zeros = int((sample_measurements(np.full(n, state.theta), meas, rng) == 0).sum())
    sigma = math.sqrt(p0 * (1 - p0) / n)
    assert abs(zeros / n - p0) <= 4 * sigma


def test_sample_measurements_deterministic_for_seed():
    thetas = [qrac_encode(1, 0).theta] * 10
    meas = measurement_for(1)
    a = sample_measurements(thetas, meas, np.random.default_rng(99))
    b = sample_measurements(thetas, meas, np.random.default_rng(99))
    assert a.dtype == np.uint8 and a.shape == (10,)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("bits", [(2, 0), (0, -1), (0.5, 1)])
def test_refusals_name_their_cause(bits):
    with pytest.raises(ValueError) as info:
        qrac_encode(*bits)
    assert f"bits must be 0/1, got {bits}" in str(info.value)
