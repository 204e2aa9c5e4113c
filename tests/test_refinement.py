"""The coefficient-extraction helpers the acceptance tests rely on."""

from __future__ import annotations

import numpy as np
import pytest
from refinement import pauli_coefficient, refine_linear, refine_quadratic


def test_refine_extracts_taylor_coefficients():
    def f(g: float) -> float:
        return 2.0 + 3.0 * g + 5.0 * g**2 + 7.0 * g**3 + 11.0 * g**4 + 13.0 * g**5

    # the linear refinement cancels the quadratic term; the cubic one leaks
    # back in at -c3 * gamma^2 / 2 = -3.5e-6 for the default step
    assert refine_linear(f) == pytest.approx(3.0, abs=1e-5)
    # even differences drop odd orders, Richardson drops the quartic
    assert refine_quadratic(f) == pytest.approx(5.0, abs=1e-9)


def test_pauli_coefficient_round_trip():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    m = 0.3 * np.eye(2) + 0.5 * sx - 0.2 * sy + 1.7 * sz
    assert pauli_coefficient(m, "i") == pytest.approx(0.3, rel=1e-14)
    assert pauli_coefficient(m, "x") == pytest.approx(0.5, rel=1e-14)
    assert pauli_coefficient(m, "y") == pytest.approx(-0.2, rel=1e-14)
    assert pauli_coefficient(m, "z") == pytest.approx(1.7, rel=1e-14)
    with pytest.raises(ValueError, match="component"):
        pauli_coefficient(m, "w")
