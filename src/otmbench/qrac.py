"""Single-qubit encoding of two classical bits with basis-choice readout.

A state is its angle: theta stands for the real pure state |psi_theta> =
cos(theta)|0> + sin(theta)|1>.  A basis is its readout angle: phi stands
for the measurement {psi_phi, psi_{phi+pi/2}}, outcome 0 being the
projector onto psi_phi.  Two bits (b0, b1) map to one of four states so
that measuring in the computational basis (angle 0) recovers b0, and
measuring in the pi/4 basis recovers b1, each with probability
cos^2(pi/8).

The angle table is

    (0,0) -> pi/8    (0,1) -> -pi/8    (1,0) -> 3pi/8    (1,1) -> 5pi/8

(the same four states as writing the b0=1 entries as +-5pi/8, relabeled so
that both readouts actually succeed with the advertised probability; angles
are equivalent mod pi up to a global sign).

The honest reader of bit alpha measures every qubit in that bit's basis,
so a read is a fixed channel: READOUT_P0[alpha, b0, b1] is the probability
of outcome 0 for the qubit of (b0, b1).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _check_int

__all__ = [
    "ENCODING_ANGLES",
    "READOUT_P0",
    "qrac_encode",
    "density_matrix",
    "measure_prob",
    "qrac_success_table",
]

ENCODING_ANGLES = {
    (0, 0): math.pi / 8,
    (0, 1): -math.pi / 8,
    (1, 0): 3 * math.pi / 8,
    (1, 1): 5 * math.pi / 8,
}

# P(outcome 0) of the qubit of (b0, b1) read in the basis of bit alpha, at
# [alpha, b0, b1]: cos^2 of the state's angle less the basis angle, 0 for
# b0 and pi/4 for b1
READOUT_P0 = np.cos(np.array([[ENCODING_ANGLES[(b0, b1)] for b1 in (0, 1)] for b0 in (0, 1)])
                    - np.array([0.0, math.pi / 4])[:, None, None]) ** 2
READOUT_P0.flags.writeable = False


def _check_alpha(alpha) -> int:
    """alpha as an int: a Python or numpy integer 0 or 1, not a bool."""
    if _check_int("alpha", alpha) not in (0, 1):
        raise ValueError(f"alpha must be the integer 0 or 1, got {alpha!r}")
    return int(alpha)


def qrac_encode(b0: int, b1: int) -> float:
    """The angle of the state that encodes (b0, b1)."""
    if b0 not in (0, 1) or b1 not in (0, 1):
        raise ValueError(f"bits must be 0/1, got ({b0}, {b1})")
    return ENCODING_ANGLES[(b0, b1)]


def density_matrix(theta: float) -> np.ndarray:
    """|psi_theta><psi_theta| of the real pure state at angle theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c * c, c * s], [c * s, s * s]])


def measure_prob(theta: float, phi: float) -> tuple[float, float]:
    """Exact outcome distribution (p0, p1) of measuring the state at angle
    theta in the basis at angle phi."""
    p0 = math.cos(theta - phi) ** 2
    return (p0, 1.0 - p0)


def qrac_success_table() -> dict:
    """P[readout of b_alpha is correct] for all (b0, b1, alpha).

    All eight entries equal cos^2(pi/8).
    """
    table = {}
    for b0, b1 in ENCODING_ANGLES:
        for alpha, want in ((0, b0), (1, b1)):
            p0 = float(READOUT_P0[alpha, b0, b1])
            table[(b0, b1, alpha)] = p0 if want == 0 else 1.0 - p0
    return table
