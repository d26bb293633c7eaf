"""Single-qubit encoding of two classical bits with basis-choice readout.

States are real single-qubit pure states |psi_theta> = cos(theta)|0> +
sin(theta)|1>.  Two bits (b0, b1) map to one of four states so that
measuring in the computational basis recovers b0, and measuring in the
pi/4-rotated basis recovers b1, each with probability cos^2(pi/8).

The angle table is

    (0,0) -> pi/8    (0,1) -> -pi/8    (1,0) -> 3pi/8    (1,1) -> 5pi/8

(the same four states as writing the b0=1 entries as +-5pi/8, relabeled so
that both readouts actually succeed with the advertised probability; angles
are equivalent mod pi up to a global sign).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import _check_int

__all__ = [
    "QubitState",
    "BasisMeasurement",
    "ENCODING_ANGLES",
    "qrac_encode",
    "measurement_for",
    "measure_prob",
    "sample_measurements",
    "qrac_success_table",
]

ENCODING_ANGLES = {
    (0, 0): math.pi / 8,
    (0, 1): -math.pi / 8,
    (1, 0): 3 * math.pi / 8,
    (1, 1): 5 * math.pi / 8,
}


@dataclass(frozen=True)
class QubitState:
    """Real pure state at angle theta from |0>."""

    theta: float

    def density_matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c * c, c * s], [c * s, s * s]])


@dataclass(frozen=True)
class BasisMeasurement:
    """Orthonormal-basis measurement {psi_theta, psi_{theta+pi/2}}.

    Outcome 0 is the projector onto psi_theta.
    """

    theta: float


def _check_alpha(alpha) -> int:
    """alpha as an int: a Python or numpy integer 0 or 1, not a bool."""
    if _check_int("alpha", alpha) not in (0, 1):
        raise ValueError(f"alpha must be the integer 0 or 1, got {alpha!r}")
    return int(alpha)


def measurement_for(alpha: int) -> BasisMeasurement:
    """Readout basis for bit alpha: Z basis for b0, pi/4 basis for b1."""
    return BasisMeasurement(0.0 if _check_alpha(alpha) == 0 else math.pi / 4)


def qrac_encode(b0: int, b1: int) -> QubitState:
    if b0 not in (0, 1) or b1 not in (0, 1):
        raise ValueError(f"bits must be 0/1, got ({b0}, {b1})")
    return QubitState(ENCODING_ANGLES[(b0, b1)])


def measure_prob(state: QubitState, meas: BasisMeasurement) -> tuple[float, float]:
    """Exact outcome distribution (p0, p1) of measuring ``state`` in ``meas``."""
    delta = state.theta - meas.theta
    p0 = math.cos(delta) ** 2
    return (p0, 1.0 - p0)


def sample_measurements(thetas, meas: BasisMeasurement, rng: np.random.Generator) -> np.ndarray:
    """Outcomes of measuring real states at angles ``thetas`` in ``meas``:
    1 where a uniform draw u, one per state in array order, has
    u >= cos^2(theta - meas.theta), the probability of outcome 0."""
    thetas = np.asarray(thetas, dtype=float)
    return (rng.random(thetas.shape) >= np.cos(thetas - meas.theta) ** 2).astype(np.uint8)


def qrac_success_table() -> dict:
    """P[readout of b_alpha is correct] for all (b0, b1, alpha).

    All eight entries equal cos^2(pi/8).
    """
    table = {}
    for (b0, b1), _ in ENCODING_ANGLES.items():
        state = qrac_encode(b0, b1)
        for alpha, want in ((0, b0), (1, b1)):
            probs = measure_prob(state, measurement_for(alpha))
            table[(b0, b1, alpha)] = probs[want]
    return table
