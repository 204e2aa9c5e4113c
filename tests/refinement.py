"""Coefficient extraction by coupling refinement, for the acceptance tests.

The tests read Taylor coefficients of exact-reference quantities in the
coupling (gamma -> 0) and Pauli components of 2 x 2 operators with these
helpers; the library itself never extracts coefficients this way.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def refine_linear(fn: Callable[[float], float], gamma: float = 1e-3) -> float:
    """Linear coefficient of fn at 0, with the next order cancelled.

    Evaluates (fn(g) - fn(0))/g at g and g/2 and combines the two estimates so
    the quadratic contamination drops out.
    """
    f0 = fn(0.0)
    c1 = (fn(gamma) - f0) / gamma
    c2 = (fn(0.5 * gamma) - f0) / (0.5 * gamma)
    return 2.0 * c2 - c1


def refine_quadratic(fn: Callable[[float], float], gamma: float = 1e-3) -> float:
    """Quadratic coefficient of fn at 0 from even differences at two steps."""
    f0 = fn(0.0)

    def even(g: float) -> float:
        return (fn(g) + fn(-g) - 2.0 * f0) / (2.0 * g * g)

    q1 = even(gamma)
    q2 = even(0.5 * gamma)
    return (4.0 * q2 - q1) / 3.0


def pauli_coefficient(matrix: np.ndarray, which: str) -> float:
    """Coefficient of a Pauli matrix (or identity) in a 2x2 Hermitian operator."""
    m = np.asarray(matrix)
    if which == "x":
        return float(np.real(m[0, 1] + m[1, 0])) / 2.0
    if which == "y":
        return float(np.imag(m[1, 0] - m[0, 1])) / 2.0
    if which == "z":
        return float(np.real(m[0, 0] - m[1, 1])) / 2.0
    if which == "i":
        return float(np.real(m[0, 0] + m[1, 1])) / 2.0
    raise ValueError(f"unknown component {which!r}")
