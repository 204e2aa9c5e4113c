"""Kernels: GEMM level-pair sums against brute-force loops, Jacobi against LAPACK."""

from __future__ import annotations

import numpy as np
import pytest

from fctherm import _kernels as K
from fctherm import quad_imaginary_time
from references import random_hermitian


# ---------------------------------------------------------------------------
# jacobi eigensolver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_jacobi_numpy_against_reference(d):
    m = random_hermitian(d, d)
    evals, vecs, sweeps = K.jacobi_eigh(m)
    ref = np.linalg.eigvalsh(m)
    assert np.max(np.abs(np.sort(evals) - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))
    rec = (vecs * evals) @ vecs.conj().T
    assert np.max(np.abs(rec - m)) < 1e-12 * max(1.0, np.max(np.abs(m)))
    assert 0 < sweeps < 60


def test_jacobi_identity_converges_in_one_sweep():
    evals, vecs, sweeps = K.jacobi_eigh(np.eye(4, dtype=complex))
    assert np.allclose(evals, 1.0)
    assert sweeps <= 1


# ---------------------------------------------------------------------------
# gap-resolved integrals
# ---------------------------------------------------------------------------


def brute_gap_integrals(energies, u_nodes, coeffs):
    d = len(energies)
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            for uj, cj in zip(u_nodes, coeffs):
                out[a, b] += cj * np.exp(uj * (energies[b] - energies[a]))
    return out


def test_gap_integrals_numpy_against_brute_force():
    rng = np.random.default_rng(1)
    energies = np.sort(rng.uniform(-2, 2, size=5))
    u = np.linspace(0.0, 1.5, 9)
    c = rng.uniform(0.1, 1.0, size=9)
    got = K.gap_integrals(energies, u, c)
    ref = brute_gap_integrals(energies, u, c)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_gap_integrals_survive_shifted_spectra():
    # all gaps are <= 1 here, but uncentred exp(+-u*E) factors would overflow;
    # centring makes the result depend only on the gaps, as it should
    energies = np.array([1000.0, 1000.5, 1001.0])
    u = np.linspace(0.0, 1.0, 5)
    c = np.ones(5)
    out = K.gap_integrals(energies, u, c)
    assert np.all(np.isfinite(out))
    ref = brute_gap_integrals(energies - 1000.5, u, c)
    assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d", [3, 12, 41, 163])
def test_gap_integrals_leading_columns(d):
    rng = np.random.default_rng(d)
    energies = np.sort(rng.uniform(0.0, 0.05 * d, size=d))
    rule = quad_imaginary_time(64, 2.0, 0.05)
    c = rule.weights * (1.0 + rule.nodes)
    full = K.gap_integrals(energies, rule.nodes, c)
    for k in (d, d + 3):  # the full product itself
        assert np.array_equal(K.gap_integrals(energies, rule.nodes, c, k), full)
    for k in (1, 2, d - 1):
        narrow = K.gap_integrals(energies, rule.nodes, c, k)
        assert narrow.shape == (d, k)
        # a narrower GEMM may block, and so round, otherwise than the full
        # one: bound the difference by the rounding of a sum of n_u terms
        lead = full[:, :k]
        n_u = rule.nodes.size
        assert np.max(np.abs(narrow - lead)) <= n_u * np.finfo(float).eps * np.max(np.abs(lead))


def test_gap_integrals_leading_columns_stay_finite_on_a_cold_ladder():
    # u * width = 780 > 709: the full table's far corner exp(u (E_39 - E_0))
    # overflows; the two lowest columns' summands are at most exp(u (E_1 - E_0))
    rule = quad_imaginary_time(64, 20.0, 0.01)
    u, c = rule.nodes, rule.weights
    energies = np.arange(40, dtype=float)
    assert u.max() * 39.0 > 709.0
    with np.errstate(over="ignore", invalid="ignore"):
        full = K.gap_integrals(energies, u, c)
    assert not np.all(np.isfinite(full))
    with np.errstate(over="raise", invalid="raise"):
        narrow = K.gap_integrals(energies, u, c, 2)
    ref = np.array([[np.sum(c * np.exp(u * (energies[b] - energies[a]))) for b in range(2)]
                    for a in range(40)])
    assert np.max(np.abs(narrow - ref) / ref) < 1e-12


# ---------------------------------------------------------------------------
# eigenbasis correlator sums
# ---------------------------------------------------------------------------


def brute_sigma_nodes(energies, abs_s_sq, u_nodes):
    d = len(energies)
    out = np.zeros((d, len(u_nodes)))
    for n in range(d):
        for j, uj in enumerate(u_nodes):
            for k in range(d):
                out[n, j] += abs_s_sq[n, k] * np.exp(-uj * (energies[k] - energies[n]))
    return out


def test_sigma_nodes_numpy_against_brute_force():
    rng = np.random.default_rng(3)
    energies = np.sort(rng.uniform(0, 2, size=4))
    s = rng.uniform(0, 1, size=(4, 4))
    abs_s_sq = 0.5 * (s + s.T)
    u = np.linspace(0.0, 1.0, 6)
    got = K.sigma_nodes(energies, abs_s_sq, u)
    ref = brute_sigma_nodes(energies, abs_s_sq, u)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# oscillator-sized case on the graded imaginary-time rule
# ---------------------------------------------------------------------------


def test_kernels_match_triple_loop_on_oscillator_ladder():
    # d = 40 ladder: exponents reach u * width / 2 = 195 (gap_integrals) and
    # u * width = 390 (sigma_nodes), so the entries span hundreds of decades
    rule = quad_imaginary_time(64, 10.0, 0.01)
    u = rule.nodes
    c = rule.weights * (1.0 + u)
    energies = np.arange(40, dtype=float)
    rng = np.random.default_rng(6)
    s = rng.uniform(0.0, 1.0, size=(40, 40))
    abs_s_sq = 0.5 * (s + s.T)

    ref_g = brute_gap_integrals(energies, u, c)
    ref_s = brute_sigma_nodes(energies, abs_s_sq, u)
    got_g = K.gap_integrals(energies, u, c)
    got_s = K.sigma_nodes(energies, abs_s_sq, u)
    assert np.max(np.abs(got_g - ref_g) / ref_g) < 1e-12
    assert np.max(np.abs(got_s - ref_s) / ref_s) < 1e-12


# ---------------------------------------------------------------------------
# exponential tables kept per (levels, nodes)
# ---------------------------------------------------------------------------


def _ladder_case(d: int = 12, n: int = 16):
    rule = quad_imaginary_time(n, 3.0, 0.05)
    rng = np.random.default_rng(9)
    s = rng.uniform(0.0, 1.0, size=(d, d))
    return np.arange(d, dtype=float), rule.nodes, rule.weights * (1.0 + rule.nodes), 0.5 * (s + s.T)


def _tables_held() -> tuple[int, int]:
    """How many (gap, sigma) table pairs the kernels' caches hold."""
    return K._gap_tables.cache_info().currsize, K._sigma_tables.cache_info().currsize


def test_kernels_are_bit_identical_cold_and_warm(cold_caches):
    e, u, c, abs_s_sq = _ladder_case()
    # the expressions the kernels evaluated before they kept their tables
    ue = np.multiply.outer(u, e - 0.5 * (e.max() + e.min()))
    fresh_g = (np.exp(-ue) * c[:, None]).T @ np.exp(ue)
    eu = np.multiply.outer(e - e.min(), u)
    fresh_s = np.exp(eu) * (abs_s_sq @ np.exp(-eu))
    cold = K.gap_integrals(e, u, c), K.sigma_nodes(e, abs_s_sq, u)
    assert _tables_held() == (1, 1)
    warm = K.gap_integrals(list(e), u.copy(), c), K.sigma_nodes(e.copy(), abs_s_sq, u)
    assert _tables_held() == (1, 1)  # equal contents hit
    for got in (cold, warm):
        assert np.array_equal(got[0], fresh_g) and np.array_equal(got[1], fresh_s)
    # other coefficients or weights on the same tables give their own sums
    assert np.array_equal(K.gap_integrals(e, u, 2.0 * c), 2.0 * fresh_g)
    assert np.array_equal(K.sigma_nodes(e, 2.0 * abs_s_sq, u), 2.0 * fresh_s)


def test_kept_tables_are_read_only_and_results_are_not(cold_caches):
    e, u, c, abs_s_sq = _ladder_case()
    results = K.gap_integrals(e, u, c), K.sigma_nodes(e, abs_s_sq, u)
    tables = [*K._gap_tables(e.tobytes(), u.tobytes()), *K._sigma_tables(e.tobytes(), u.tobytes())]
    assert _tables_held() == (1, 1)  # the pairs the kernels kept, not new ones
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
    for result in results:
        result[0, 0] = 0.0  # the caller owns what a kernel returns


def test_an_overflowing_table_leaves_no_entry(cold_caches):
    # u * width = 2000: the sigma table overflows, and so does each gap table
    e, u = np.array([0.0, 2000.0]), np.array([0.5, 1.0])
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            K.sigma_nodes(e, np.ones((2, 2)), u)
        with pytest.raises(FloatingPointError):
            K.gap_integrals(e, np.array([0.0, 1.5]), np.ones(2))
    assert _tables_held() == (0, 0)
