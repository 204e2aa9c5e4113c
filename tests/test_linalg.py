"""Eigensolver, thermal states, logarithmic derivatives, quadrature rules."""

from __future__ import annotations

import numpy as np
import pytest

from fctherm import (
    DensityOperator,
    DiscreteBath,
    SingularSupportError,
    eigendecompose,
    gibbs_populations,
    gibbs_state,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    qfi_from_sld,
    quad_finite,
    quad_imaginary_time,
    quad_semiinfinite,
    quad_thermal_frequency,
    require_hermitian,
    sld_solve,
)
from fctherm import linalg
from fctherm.linalg import MAX_LAGUERRE_NODES, _laggauss, _leggauss, _phase_gauge
from references import random_hermitian


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _real_symmetric(d: int, seed: int) -> np.ndarray:
    m = np.random.default_rng(seed).standard_normal((d, d))
    return 0.5 * (m + m.T)


def test_require_hermitian_accepts_and_rejects():
    m = random_hermitian(4, 0)
    out = require_hermitian(m)
    assert out.dtype == np.complex128
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(m + 1e-6 * np.eye(4) * 1j)
    with pytest.raises(ValueError, match="square"):
        require_hermitian(np.ones((2, 3)))


def test_an_empty_operator_is_refused_where_it_enters():
    # every operator enters through require_hermitian, so no later step
    # (decomposition, kernel table, scale) meets an empty spectrum
    for empty in (np.zeros((0, 0)), np.zeros((0, 0), dtype=complex), []):
        with pytest.raises(ValueError, match="probe Hamiltonian must be a non-empty square"):
            require_hermitian(empty, name="probe Hamiltonian")
        with pytest.raises(ValueError, match="non-empty square"):
            eigendecompose(empty)
    # a 0 x 0 bath was once built, and failed only in its decomposition, with
    # numpy's "zero-size array to reduction operation maximum"
    empty = np.zeros((0, 0))
    with pytest.raises(ValueError, match="bath Hamiltonian must be a non-empty square"):
        DiscreteBath(empty, empty)
    with pytest.raises(ValueError, match="probe Hamiltonian must be a non-empty square"):
        probe_custom(empty, empty)


@pytest.mark.parametrize(
    "m, dtype",
    [
        (_real_symmetric(4, 0), np.float64),
        (_real_symmetric(4, 0).astype(complex), np.float64),
        (random_hermitian(4, 0), np.complex128),
    ],
    ids=["float64", "complex-zero-imag", "complex"],
)
def test_require_hermitian_chooses_dtype(m, dtype):
    # the one place an operator's dtype is chosen: float64 when the imaginary
    # part is all zero (a contiguous copy of a complex input), else complex128
    out = require_hermitian(m)
    assert out.dtype == dtype
    assert out.flags.c_contiguous
    assert np.array_equal(out, m)
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(m + 1e-6 * np.eye(4) * 1j)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_require_hermitian_refuses_non_finite_entries(bad):
    # every comparison with NaN is false, so the Hermiticity drift and the
    # eigensolver's checks would all pass on such a matrix
    m = random_hermitian(3, 2)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        require_hermitian(m, name="probe Hamiltonian")
    with pytest.raises(ValueError, match="non-finite"):
        eigendecompose(m)


def test_linear_algebra_guards_keep_their_values():
    assert linalg.HERMITICITY_TOL == 1e-12
    assert linalg.EIG_RECONSTRUCTION_TOL == 1e-10
    assert linalg.EIG_UNITARITY_TOL == 1e-10


def test_require_hermitian_reads_the_module_guard(monkeypatch):
    off = random_hermitian(3, 1)
    off[0, 1] += 1e-10
    with pytest.raises(ValueError, match="not Hermitian"):
        require_hermitian(off)
    monkeypatch.setattr(linalg, "HERMITICITY_TOL", 1e-6)
    assert np.array_equal(require_hermitian(off), off)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 5, 9, 16])
def test_eigendecompose_matches_reference_solver(d):
    m = random_hermitian(d, 7 + d)
    dec = eigendecompose(m)
    ref = np.linalg.eigvalsh(m)
    assert np.max(np.abs(dec.evals - ref)) < 1e-11 * max(1.0, np.max(np.abs(ref)))
    assert np.all(np.diff(dec.evals) >= 0)
    # reconstruction and unitarity
    rec = (dec.evecs * dec.evals) @ dec.evecs.conj().T
    assert np.max(np.abs(rec - m)) < 1e-11 * max(1.0, np.max(np.abs(m)))
    assert np.max(np.abs(dec.evecs.conj().T @ dec.evecs - np.eye(d))) < 1e-12


def test_eigendecompose_is_reproducible_with_degeneracies():
    # two-fold degenerate level; LAPACK is deterministic for a given input,
    # so a repeat call returns the same basis bit for bit
    base = np.diag([1.0, 1.0, 3.0]).astype(complex)
    u = eigendecompose(random_hermitian(3, 42)).evecs
    m = u @ base @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    d1 = eigendecompose(m)
    d2 = eigendecompose(m.copy())
    assert np.array_equal(d1.evals, d2.evals)
    assert np.array_equal(d1.evecs, d2.evecs)
    rec = (d1.evecs * d1.evals) @ d1.evecs.conj().T
    assert np.max(np.abs(rec - m)) < 1e-10


def _rotated(levels, seed: int) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(levels),) * 2))
    m = (q * levels) @ q.T
    return 0.5 * (m + m.T)


_gibbs_12 = np.exp(-3.0 * np.arange(12.0))


@pytest.mark.parametrize(
    "levels",
    [[0.0, 1e-13, 2e-13, 3e-13, 4e-13, 0.5, 1.0], _gibbs_12 / _gibbs_12.sum()],
    ids=["levels-within-1e-13", "gibbs-12-levels-beta-3"],
)
def test_each_eigenvector_belongs_to_its_eigenvalue(levels):
    # distinct levels closer than 1e-12 (the small Boltzmann weights of a cold
    # state) each keep their own column: a reordering of those columns
    # passes the 1e-10 reconstruction guard, but not this per-column residual
    m = _rotated(levels, 2)
    dec = eigendecompose(m)
    resid = np.linalg.norm(m @ dec.evecs - dec.evecs * dec.evals, axis=0)
    assert np.max(resid) <= 1e-14 * max(1.0, np.max(np.abs(m)))


def test_eigendecompose_d128_with_degenerate_cluster_is_bit_reproducible():
    # 3-fold cluster at 0.5 inside an otherwise random spectrum
    rng = np.random.default_rng(128)
    levels = np.sort(rng.uniform(-4.0, 4.0, size=128))
    levels[60:63] = 0.5
    u = eigendecompose(random_hermitian(128, 11)).evecs
    m = (u * levels) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    d1 = eigendecompose(m)
    d2 = eigendecompose(m.copy())
    assert np.array_equal(d1.evals, d2.evals)
    assert np.array_equal(d1.evecs, d2.evecs)
    assert np.max(np.abs(d1.evals - np.sort(levels))) < 1e-12
    rec = (d1.evecs * d1.evals) @ d1.evecs.conj().T
    assert np.max(np.abs(rec - m)) < 1e-12
    assert np.max(np.abs(d1.evecs.conj().T @ d1.evecs - np.eye(128))) < 1e-12


def test_eigendecompose_real_symmetric_input_runs_in_real_arithmetic():
    # a real-symmetric matrix stored as complex, with a 2-fold cluster
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    levels = np.sort(rng.uniform(-3.0, 3.0, size=12))
    levels[4:6] = 0.25
    m = ((q * levels) @ q.T).astype(complex)
    m = 0.5 * (m + m.conj().T)
    dec = eigendecompose(m)
    assert dec.evecs.dtype == np.float64
    assert np.max(np.abs((dec.evecs * dec.evals) @ dec.evecs.T - m)) < 1e-12
    assert np.max(np.abs(dec.evecs.T @ dec.evecs - np.eye(12))) < 1e-12
    # phase gauge: each column's largest-magnitude entry is positive
    assert np.all(np.abs(dec.evecs).argmax(axis=0) == dec.evecs.argmax(axis=0))
    # the complex path on the same matrix plus a sigma_y-type (i * real
    # antisymmetric) perturbation that goes to 0; it splits the cluster at
    # first order in eps and moves the simple levels at second order
    a = rng.standard_normal((12, 12))
    scale = float(np.max(np.abs(levels)))
    for eps in (1e-15, 1e-100, 1e-300):
        near = eigendecompose(m + 1j * eps * (a - a.T))
        assert near.evecs.dtype == np.complex128
        assert np.max(np.abs(near.evals - dec.evals)) < 1e-12 * scale


def test_eigendecompose_complex_hermitian_keeps_complex_eigenvectors():
    m = random_hermitian(6, 5)
    dec = eigendecompose(m)
    assert dec.evecs.dtype == np.complex128
    rows = np.abs(dec.evecs).argmax(axis=0)
    pivots = dec.evecs[rows, np.arange(6)]
    assert np.all(pivots.imag == 0.0) and np.all(pivots.real > 0.0)


def _counting_eigh(monkeypatch) -> list:
    calls = []
    solver = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return solver(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_eigendecompose_diagonal_input_skips_lapack(monkeypatch, dtype):
    # unsorted, with a tied pair at -1 and a zero level
    levels = np.array([3.0, -1.0, 2.0, 0.0, -1.0, 0.5, -2.5])
    m = np.diag(levels).astype(dtype)
    ref_w, ref_v = np.linalg.eigh(m.real)
    ref_v = _phase_gauge(ref_v)
    calls = _counting_eigh(monkeypatch)
    dec = eigendecompose(m)
    again = eigendecompose(m.copy())
    assert calls == []
    assert dec.evecs.dtype == np.float64
    assert np.array_equal(dec.evals, np.sort(levels))
    assert np.array_equal(dec.evals, ref_w)
    assert np.array_equal(dec.evecs, ref_v)
    assert np.array_equal(dec.evals, again.evals) and np.array_equal(dec.evecs, again.evecs)
    # a single off-diagonal entry, however small, goes to the solver
    near = m.copy()
    near[1, 5] = near[5, 1] = 1e-300
    dec_near = eigendecompose(near)
    assert calls == [m.shape]
    assert np.max(np.abs(dec_near.evals - dec.evals)) < 1e-15


def test_eigendecompose_diagonal_input_keeps_its_checks(monkeypatch, cold_caches):
    diag = np.diag([2.0, -1.0, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        eigendecompose(diag + 1e-6j * np.eye(3))
    with pytest.raises(ValueError, match="square"):
        eigendecompose(np.zeros((2, 3)))
    # the built-in probes build their spectra from their levels, through the
    # same closed-form checks
    builders = (lambda: eigendecompose(diag), lambda: probe_qubit(1.0, 0.3),
                lambda: probe_oscillator(1.0, 12))
    for tol, message in (("EIG_UNITARITY_TOL", "not unitary"),
                         ("EIG_RECONSTRUCTION_TOL", "reconstruction failed")):
        with monkeypatch.context() as m:
            m.setattr(linalg, tol, -1.0)
            for build in builders:
                with pytest.raises(ValueError, match=message):
                    build()
    # a complex diagonal whose imaginary part is within the hermiticity
    # tolerance keeps complex unit eigenvectors, as LAPACK's complex solver does
    dec = eigendecompose(diag + 1e-14j * np.eye(3))
    assert dec.evecs.dtype == np.complex128
    assert np.array_equal(dec.evals, [-1.0, 0.5, 2.0])


def _phase_gauge_loop(evecs: np.ndarray) -> np.ndarray:
    """Column-by-column reference for ``_phase_gauge``."""
    out = evecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0:
            out[:, j] = col * (np.conj(piv) / abs(piv))
            out[i, j] = abs(out[i, j])
    return out


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_phase_gauge_matches_column_loop(dtype):
    # a zero column keeps its (absent) phase instead of turning into NaN
    rng = np.random.default_rng(77)
    v = rng.standard_normal((9, 9))
    if dtype is np.complex128:
        v = v + 1j * rng.standard_normal((9, 9))
    v[:, 4] = 0.0
    expected = _phase_gauge_loop(v)
    got = _phase_gauge(v.copy())
    assert got.dtype == dtype
    assert np.all(np.isfinite(got)) and not np.any(got[:, 4])
    if dtype is np.float64:
        # real moduli are exact, so the phases are the same signs
        assert np.array_equal(got, expected)
    else:
        # numpy's vectorised complex abs may round the modulus differently
        # in the last bit from the scalar abs the loop uses
        assert np.max(np.abs(got - expected)) <= 4 * np.finfo(float).eps * np.max(np.abs(v))
        pivots = got[np.abs(got).argmax(axis=0), np.arange(9)]
        assert not np.any(pivots.imag)


def test_eigenbasis_round_trip():
    m = random_hermitian(5, 3)
    dec = eigendecompose(m)
    op = random_hermitian(5, 4)
    back = dec.from_eigenbasis(dec.to_eigenbasis(op))
    assert np.max(np.abs(back - op)) < 1e-13


def _diagonal_cases():
    """Diagonal Hamiltonians, each with operands to rotate: built-in probes
    with their couplings, ties with negative entries, and a complex diagonal
    inside the hermiticity tolerance."""
    rng = np.random.default_rng(11)
    tied = np.diag([3.0, -1.0, 2.0, 0.0, -1.0, 0.5, -2.5])
    complex_diag = np.diag([2.0, -1.0, 0.5]).astype(complex) + 1e-14j * np.eye(3)
    probes = [probe_qubit(1.0, t) for t in (0.0, 0.7, 2.5)]
    probes += [probe_oscillator(1.0, n) for n in (2, 12, 40)]
    models = [(p.hamiltonian, [p.coupling]) for p in probes] + [(tied, []), (complex_diag, [])]
    for h, couplings in models:
        d = h.shape[0]
        real = rng.standard_normal((d, d))
        real[0, -1] = real[-1, -1] = -0.0  # the products give +0.0 here
        # no signed zero in a complex operand: for d <= 3 numpy's complex
        # product gives -0.0 or +0.0 there depending on the other entries,
        # for larger d (through BLAS) +0.0
        cplx = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        yield h, [*couplings, real, 0.5 * (real + real.T), cplx, 0.5 * (cplx + cplx.conj().T)]


@pytest.mark.parametrize("case", range(8))
def test_permutation_rotations_are_the_dense_rotations_bit_for_bit(case):
    h, operands = list(_diagonal_cases())[case]
    dec = eigendecompose(h)
    assert dec._order is not None
    v = dec.evecs
    assert np.array_equal(v, np.eye(dec.dim)[:, dec._order])

    def same(got, ref):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()  # -0.0 and +0.0 differ here

    for op in operands:
        dtype = np.result_type(v, op)
        same(dec.to_eigenbasis(op), (v.conj().T @ op @ v).astype(dtype))
        same(dec.from_eigenbasis(op), (v @ op @ v.conj().T).astype(dtype))
    for beta in (0.0, 0.3, 5.0):
        p = gibbs_populations(dec.evals, beta)
        rho = (v * p) @ v.conj().T
        ref = DensityOperator(0.5 * (rho + rho.conj().T)).matrix
        same(gibbs_state(dec, beta).matrix, ref)


# ---------------------------------------------------------------------------
# thermal states
# ---------------------------------------------------------------------------


def test_gibbs_populations_qubit_closed_form():
    evals = np.array([-0.5, 0.5])
    for beta in (0.0, 0.7, 5.0):
        p = gibbs_populations(evals, beta)
        z = np.exp(0.5 * beta) + np.exp(-0.5 * beta)
        assert abs(p[0] - np.exp(0.5 * beta) / z) < 1e-15
        assert abs(p.sum() - 1.0) < 1e-15


def test_gibbs_populations_no_overflow_at_large_beta():
    p = gibbs_populations(np.array([0.0, 1.0, 2.0]), 1e4)
    assert p[0] == pytest.approx(1.0)
    assert np.all(np.isfinite(p))


def test_gibbs_state_beta_zero_is_maximally_mixed():
    rho = gibbs_state(eigendecompose(random_hermitian(4, 11)), 0.0)
    assert np.max(np.abs(rho.matrix - np.eye(4) / 4.0)) < 1e-13


@pytest.mark.parametrize("beta", [-0.1, -np.inf, np.inf, np.nan])
def test_gibbs_refuses_beta_out_of_domain(beta):
    # gibbs_populations is the one check: every Gibbs weight goes through it
    levels = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        gibbs_populations(levels, beta)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        gibbs_state(eigendecompose(np.diag(levels)), beta)


def test_density_operator_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.diag([0.7, 0.7]).astype(complex))


# ---------------------------------------------------------------------------
# dephasing map and logarithmic derivatives
# ---------------------------------------------------------------------------


def test_sld_solve_residual_and_hermiticity():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    drho = random_hermitian(4, 10)
    drho -= np.trace(drho).real / 4.0 * np.eye(4)
    sld = sld_solve(rho, drho)
    assert np.max(np.abs(sld - sld.conj().T)) < 1e-12
    resid = 0.5 * (sld @ rho + rho @ sld) - drho
    assert np.max(np.abs(resid)) < 1e-10
    with pytest.raises(ValueError, match="not Hermitian"):
        sld_solve(rho, drho + 1e-6j * np.eye(4))


def test_sld_solve_requires_traceless_derivative():
    rho = np.diag([0.6, 0.4]).astype(complex)
    with pytest.raises(ValueError, match="trace-preserving"):
        sld_solve(rho, np.diag([0.1, 0.0]).astype(complex))


def test_sld_solve_null_direction_raises():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1e-3, 1e-3]).astype(complex)
    with pytest.raises(SingularSupportError):
        sld_solve(rho, drho)


def test_sld_solve_ignores_negligible_null_weight():
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1e-13, 1e-13]).astype(complex)
    sld = sld_solve(rho, drho)
    assert np.all(np.isfinite(sld))


def test_qfi_matches_thermal_variance():
    # for the bare thermal family the QFI equals Var(H): check on a qubit
    eps, beta = 1.3, 0.8
    h = np.diag([0.5 * eps, -0.5 * eps]).astype(complex)
    rho = gibbs_state(eigendecompose(h), beta).matrix
    x = 0.5 * beta * eps
    drho_diag = np.array([-1.0, 1.0]) * 0.5 * eps / (2.0 * np.cosh(x) ** 2)
    sld = sld_solve(rho, np.diag(drho_diag).astype(complex))
    var = (0.5 * eps) ** 2 / np.cosh(x) ** 2
    assert qfi_from_sld(rho, sld) == pytest.approx(var, rel=1e-12)


# ---------------------------------------------------------------------------
# quadrature rules
# ---------------------------------------------------------------------------


def test_quad_finite_exact_to_declared_degree():
    # n Gauss-Legendre nodes integrate every polynomial of degree <= 2n - 1
    rule = quad_finite(6, -1.5, 2.5)
    for k in range(2 * 6):
        exact = (2.5 ** (k + 1) - (-1.5) ** (k + 1)) / (k + 1)
        got = rule.integrate(rule.nodes**k)
        assert abs(got - exact) < 1e-12 * max(1.0, abs(exact)), k
    with pytest.raises(ValueError):
        quad_finite(0, 0.0, 1.0)
    # a non-finite end is refused by name before numpy maps the nodes
    for a, b, name in ((0.0, np.inf, "b"), (np.nan, 1.0, "a"), (-np.inf, 0.0, "a"), (0.0, np.nan, "b")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            quad_finite(8, a, b)


def test_quad_semiinfinite_exactness_and_cap():
    # int_0^inf x^3 exp(-x/2) dx = 6 * 2^4
    rule = quad_semiinfinite(4, scale=2.0)
    assert rule.integrate(rule.nodes**3 * np.exp(-rule.nodes / 2.0)) == pytest.approx(96.0, rel=1e-12)
    assert np.all(rule.weights > 0)
    with pytest.raises(ValueError, match="overflow"):
        quad_semiinfinite(MAX_LAGUERRE_NODES + 1)
    for scale in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^scale must be positive and finite"):
            quad_semiinfinite(8, scale=scale)
    with pytest.raises(ValueError, match="at least one node"):
        quad_semiinfinite(0)


def test_memoised_base_rules_are_read_only():
    ref_leg = quad_finite(7, 0.0, 2.0).nodes.copy()
    ref_lag = quad_semiinfinite(9, scale=3.0).nodes.copy()
    for rule in (quad_finite(7, 0.0, 2.0), quad_semiinfinite(9, scale=3.0)):
        rule.nodes[:] = -1.0
        rule.weights[:] = -1.0
    assert np.array_equal(quad_finite(7, 0.0, 2.0).nodes, ref_leg)
    assert np.array_equal(quad_semiinfinite(9, scale=3.0).nodes, ref_lag)
    # Laguerre nodes, weights and their cached e^{x} factor
    for array in (*_leggauss(7), *_laggauss(9)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_quad_thermal_frequency_warm_branch():
    # beta * cutoff <= 30: plain Laguerre at the cutoff scale, node count capped
    rule = quad_thermal_frequency(512, 3.0, 0.1)
    assert rule.kind == "gauss-laguerre"
    assert rule.nodes.size == MAX_LAGUERRE_NODES
    got = rule.integrate(rule.nodes * np.exp(-rule.nodes / 3.0))
    assert got == pytest.approx(9.0, rel=1e-12)  # Gamma(2) * 3^2


def test_quad_thermal_frequency_cold_branch_resolves_infrared():
    # beta*cutoff = 1000: thermal weight exp(-beta w) lives far below the
    # cutoff scale, where a single Laguerre rule has no nodes at all; at
    # n = 1000 the tail panel is capped like the single-scale rule
    beta, cutoff = 10.0, 100.0
    exact = 1.0 / (beta + 1.0 / cutoff) ** 2  # Gamma(2)/(beta + 1/cutoff)^2
    for n in (128, 1000):
        rule = quad_thermal_frequency(n, cutoff, beta)
        assert rule.kind == "legendre+laguerre"
        assert np.all(rule.weights > 0)
        got = rule.integrate(rule.nodes * np.exp(-rule.nodes / cutoff) * np.exp(-beta * rule.nodes))
        assert got == pytest.approx(exact, rel=1e-10)
    with pytest.raises(ValueError, match="beta"):
        quad_thermal_frequency(64, cutoff, 0.0)


def test_quad_imaginary_time_plain_fallback():
    # no layer, or a layer comparable to beta, reduces to plain Gauss-Legendre
    for layer in (None, 0.9):
        rule = quad_imaginary_time(16, 2.0, layer)
        assert rule.kind == "gauss-legendre"
        assert rule.nodes.size == 16


def test_quad_imaginary_time_graded_structure():
    beta = 10.0
    rule = quad_imaginary_time(64, beta, 0.01)
    assert rule.kind == "legendre-graded"
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[0] > 0.0 and rule.nodes[-1] < beta
    assert rule.weights.sum() == pytest.approx(beta, abs=1e-12)


def test_quad_imaginary_time_resolves_boundary_layers():
    # integrand with an algebraic layer of width 0.01 at u = 0, like the
    # correlator of a cutoff-100 continuum environment
    beta, lay = 10.0, 0.01
    exact = 1.0 / lay - 1.0 / (lay + beta)

    def f(u):
        return (u + lay) ** -2.0

    plain = quad_finite(64, 0.0, beta)
    graded = quad_imaginary_time(64, beta, lay)
    err_plain = abs(plain.integrate(f(plain.nodes)) - exact) / exact
    err_graded = abs(graded.integrate(f(graded.nodes)) - exact) / exact
    assert err_plain > 1e-3  # the plain rule genuinely cannot see the layer
    assert err_graded < 1e-8


def _reference_panel(n, a, b):
    # Gauss-Legendre on one panel, in the arithmetic every rule uses
    x, w = _leggauss(n)
    half = 0.5 * (b - a)
    return half * x + 0.5 * (a + b), half * w


def _reference_graded(n, beta, layer):
    # each panel and its mirror as a separate rule, then concatenated and sorted
    edges = [0.0]
    b = float(layer)
    while b < 0.5 * beta:
        edges.append(b)
        b *= 4.0
    edges.append(0.5 * beta)
    m = max(10, n // (2 * (len(edges) - 1)))
    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        parts += [_reference_panel(m, lo, hi), _reference_panel(m, beta - hi, beta - lo)]
    nodes = np.concatenate([p[0] for p in parts])
    weights = np.concatenate([p[1] for p in parts])
    order = np.argsort(nodes)
    return nodes[order], weights[order]


def _reference_frequency(n, cutoff, beta):
    if beta * cutoff <= linalg.THERMAL_SPLIT:
        rule = quad_semiinfinite(min(n, MAX_LAGUERRE_NODES), scale=cutoff)
        return rule.nodes, rule.weights
    w_split = linalg.THERMAL_SPLIT / beta
    n_low = max(1, n // 2)
    n_mid = max(8, (n - n_low) * 3 // 5)
    n_tail = min(max(8, n - n_low - n_mid), MAX_LAGUERRE_NODES)
    low = _reference_panel(n_low, 0.0, w_split)
    mid = _reference_panel(n_mid, w_split, 2.0 * cutoff)
    tail = quad_semiinfinite(n_tail, scale=cutoff)
    return (
        np.concatenate([low[0], mid[0], 2.0 * cutoff + tail.nodes]),
        np.concatenate([low[1], mid[1], tail.weights]),
    )


def test_composite_rules_match_panel_by_panel_construction():
    # mapping every panel in one step, mirrors listed from the middle outward,
    # gives bit for bit the rule assembled one panel at a time and sorted
    for n in (1, 10, 64, 100, 512):
        for beta in np.logspace(-2.0, 2.0, 17):
            beta = float(beta)
            cases = [(quad_finite(n, 0.0, beta), _reference_panel(n, 0.0, beta))]
            for layer in (None, 1e-5, 1e-2, 0.2, beta / 8.0 * (1.0 - 1e-9)):
                rule = quad_imaginary_time(n, beta, layer)
                graded = layer is not None and layer < 0.125 * beta
                ref = _reference_graded(n, beta, layer) if graded else _reference_panel(n, 0.0, beta)
                cases.append((rule, ref))
            for cutoff in (1.0, 100.0):
                cases.append((quad_thermal_frequency(n, cutoff, beta), _reference_frequency(n, cutoff, beta)))
            for rule, (nodes, weights) in cases:
                assert np.array_equal(rule.nodes, nodes), (n, beta, rule.kind)
                assert np.array_equal(rule.weights, weights), (n, beta, rule.kind)
                assert np.all(np.diff(rule.nodes) > 0), (n, beta, rule.kind)


def test_graded_rule_absorbs_a_sliver_last_panel():
    # a layer just under beta / (8 * 4^k) leaves a last graded panel only ulps
    # wide; it joins its neighbour, so nodes stay distinct and weights positive
    for beta in (0.3, 1.0, 7.0, 100.0):
        for k in range(4):
            top = beta / (8.0 * 4.0**k)
            layers = [np.nextafter(top, 0.0)] + [top * (1.0 - 10.0**-e) for e in range(3, 17)]
            for layer in layers:
                for n in (10, 64):
                    rule = quad_imaginary_time(n, beta, layer)
                    assert np.all(np.diff(rule.nodes) > 0), (beta, k, layer, n)
                    assert np.all(rule.weights > 0), (beta, k, layer, n)
                    for j in range(8):
                        exact = beta ** (j + 1) / (j + 1)
                        got = rule.integrate(rule.nodes**j)
                        assert abs(got - exact) <= 1e-13 * exact, (beta, k, layer, n, j)


def test_every_imaginary_time_rule_is_its_own_mirror(cold_caches):
    # read backwards, the nodes are beta - u_j to the bound a continuum bath
    # correlator checks before it reads C(beta - u_j) off node n-1-j; the
    # two sliver layers take the merged last panel
    cases = []
    for beta in np.geomspace(1e-3, 1e4, 8):
        beta = float(beta)
        top = beta / (8.0 * 4.0**2)
        cases += [(beta, layer) for layer in (
            None, 1e-5, 1e-2, 0.2, beta / 100.0, beta / 8.0 * (1.0 - 1e-9),
            float(np.nextafter(top, 0.0)), top * (1.0 - 1e-12))]
    for n in range(1, 257):  # n outermost: each node count's base rule is built once
        for beta, layer in cases:
            u = quad_imaginary_time(n, beta, layer).nodes
            drift = np.max(np.abs((beta - u) - u[::-1]))
            assert drift <= linalg._MIRROR_ULPS * np.spacing(beta), (n, beta, layer)


def test_graded_rule_builds_only_the_rule_it_returns(monkeypatch, built_rules):
    def no_call(*args, **kwargs):
        raise AssertionError("quad_finite called by a composite rule")

    monkeypatch.setattr(linalg, "quad_finite", no_call)
    assert quad_imaginary_time(64, 10.0, 0.01).kind == "legendre-graded"
    assert built_rules == ["legendre-graded"]
    built_rules.clear()
    assert quad_thermal_frequency(128, 100.0, 10.0).kind == "legendre+laguerre"
    assert built_rules == ["legendre+laguerre"]  # its Laguerre tail is no rule of its own


@pytest.mark.parametrize("n", [0, -5])
def test_composite_rules_need_a_node_in_every_regime(n):
    beta = 3.0
    for layer in (None, 0.01):  # plain and graded
        with pytest.raises(ValueError, match="at least one node"):
            quad_imaginary_time(n, beta, layer)
    for cutoff in (1.0, 100.0):  # single Laguerre and split
        with pytest.raises(ValueError, match="at least one node"):
            quad_thermal_frequency(n, cutoff, beta)


def test_quadrature_rejects_nonpositive_weights():
    from fctherm import QuadratureRule

    with pytest.raises(ValueError, match="positive"):
        QuadratureRule(np.array([0.5]), np.array([-1.0]), "bad")


def test_quadrature_rejects_non_finite_nodes_and_weights():
    from fctherm import QuadratureRule

    for nodes, weights in (([np.nan], [1.0]), ([np.inf], [1.0]), ([0.5], [np.nan]), ([0.5], [np.inf])):
        with pytest.raises(ValueError, match="finite"):
            QuadratureRule(np.array(nodes), np.array(weights), "bad")


def test_rule_builders_refuse_a_nan_beta(cold_caches):
    # NaN passes "beta <= 0"; the builders test "not beta > 0"
    for layer in (None, 0.01):  # plain and graded
        with pytest.raises(ValueError, match="beta"):
            quad_imaginary_time(8, np.nan, layer)
    for cutoff in (1.0, 100.0):
        with pytest.raises(ValueError, match="beta"):
            quad_thermal_frequency(8, cutoff, np.nan)
    assert quad_imaginary_time.cache_info().currsize == 0  # a raised call leaves no entry


def test_imaginary_time_rule_is_built_once_per_key_and_read_only(cold_caches):
    rule = quad_imaginary_time(64, 3.0, 0.01)
    assert quad_imaginary_time(64, 3.0, 0.01) is rule
    assert quad_imaginary_time(64, 3.5, 0.01) is not rule
    for r in (rule, quad_imaginary_time(16, 2.0)):  # graded and plain
        for array in (r.nodes, r.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
