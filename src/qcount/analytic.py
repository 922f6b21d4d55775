"""Closed-form predictions for both counting circuits.

Both engines run these formulas; they differ only in how M is found.
"""
from __future__ import annotations

import math

import numpy as np

from .grover import GroverAngle

_SIN_EPS = 1e-15


def p1_exact(k: int, angle: GroverAngle) -> float:
    """Probability of measuring 1 at step k: sin^2(2**k * theta / 2)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return math.sin(0.5 * (2.0 ** k) * angle.theta) ** 2


def circuit_state_closed_form(k: int, angle: GroverAngle) -> tuple[float, float, float, float]:
    """Coefficients of the pre-measurement state at step k.

    Returns (c0_unmarked, c0_marked, c1_unmarked, c1_marked): the amplitudes
    of the measurement qubit being 0/1 tensored with the uniform unmarked /
    marked superpositions, with K = 2**k controlled-Grover iterations:

        c0_unmarked = cos(K*t/2) cos((K+1)*t/2)   c0_marked = cos(K*t/2) sin((K+1)*t/2)
        c1_unmarked = sin(K*t/2) sin((K+1)*t/2)   c1_marked = -sin(K*t/2) cos((K+1)*t/2)
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    half_k = 0.5 * (2.0 ** k) * angle.theta
    half_k1 = 0.5 * (2.0 ** k + 1.0) * angle.theta
    return (
        math.cos(half_k) * math.cos(half_k1),
        math.cos(half_k) * math.sin(half_k1),
        math.sin(half_k) * math.sin(half_k1),
        -math.sin(half_k) * math.cos(half_k1),
    )


def _phase_kernel(t: int, x: float, j: np.ndarray) -> np.ndarray:
    """Squared amplitude of outcome j when a t-qubit register holds phase x.

    sin^2(2**t * pi * d) / (2**(2t) * sin^2(pi * d)) with d = x - j/2**t;
    the removable singularity at integer d evaluates to 1.
    """
    delta = x - j / float(1 << t)
    s = np.sin(np.pi * delta)
    out = np.ones_like(delta)
    regular = np.abs(s) >= _SIN_EPS
    num = np.sin((1 << t) * np.pi * delta[regular]) ** 2
    out[regular] = num / (float(1 << (2 * t)) * s[regular] ** 2)
    return out


def pea_distribution(t: int, angle: GroverAngle) -> np.ndarray:
    """Exact outcome distribution of the t-qubit phase-estimation register.

    The register reads out the Grover eigenphase, which is +/-theta with
    equal weight, so the distribution is the equal mixture of the
    estimation kernels centred at phi and 1 - phi.
    """
    if not 1 <= t <= 24:
        raise ValueError(f"t must be in [1, 24], got {t}")
    j = np.arange(1 << t, dtype=np.float64)
    return 0.5 * (_phase_kernel(t, angle.phi, j) + _phase_kernel(t, 1.0 - angle.phi, j))
