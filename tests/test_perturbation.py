"""Second-order state correction, first-order offset term, expanded SLD."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from fctherm import (
    ContinuumBath,
    CouplingTooStrongError,
    DiscreteBath,
    SpectralDecomposition,
    bath_correlation,
    bath_mode,
    bath_qubit,
    cfi_energy_perturbative,
    gibbs_state,
    mfg_second_order,
    p1_operator,
    probe_correlation,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    sld_second_order,
    snr_bound,
    x_matrix,
    x_matrix_fd_dbeta,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
PROJ_UP = np.diag([1.0, 0.0]).astype(complex)

MODEL_PAIRS = [
    (probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)),
    (probe_qubit(1.0, 1.5 * np.pi), ContinuumBath(1.0, 100.0)),
    (probe_qubit(0.7, 0.3), bath_mode(1.0, 25)),
    (probe_oscillator(1.0, beta_design=0.5), ContinuumBath(1.0, 100.0, dim_exponent=2.0)),
]


# ---------------------------------------------------------------------------
# the correction matrix X
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("probe, bath", MODEL_PAIRS)
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_correction_is_traceless_under_populations(probe, bath, beta):
    exp = x_matrix(probe, bath, beta)
    scale = max(1.0, float(np.max(np.abs(exp.weighted_x()))))
    assert abs(exp.trace_identity()) < 1e-12 * scale


@pytest.mark.parametrize("probe, bath", MODEL_PAIRS[:2])
def test_weighted_correction_is_nearly_hermitian(probe, bath):
    exp = x_matrix(probe, bath, 1.0)
    scale = max(1.0, float(np.max(np.abs(exp.weighted_x()))))
    assert exp.hermiticity_drift < 1e-10 * scale


def test_x_matrix_accepts_prebuilt_correlator_with_matching_beta():
    probe, bath = MODEL_PAIRS[1]
    beta = 1.0
    corr = bath_correlation(bath, beta)
    a = x_matrix(probe, corr, beta).x
    b = x_matrix(probe, bath, beta).x
    assert np.max(np.abs(a - b)) < 1e-14 * max(1.0, np.max(np.abs(b)))
    with pytest.raises(ValueError, match="different beta"):
        x_matrix(probe, corr, 2.0)
    with pytest.raises(TypeError, match="unsupported bath"):
        x_matrix(probe, object(), beta)


def test_x_matrix_refuses_nonzero_mean_coupling():
    probe = probe_qubit(1.0, np.pi / 2.0)
    proj_bath = DiscreteBath(SZ, PROJ_UP, label="projector")
    with pytest.raises(ValueError, match="p1_operator"):
        x_matrix(probe, proj_bath, 1.0)


@pytest.mark.parametrize("probe, bath", [MODEL_PAIRS[1], MODEL_PAIRS[3]])
def test_expansion_carries_the_probe_correlator(probe, bath):
    # the level sums X is assembled from are the probe correlator's own: the
    # carried correlator evaluates exactly as a freshly built one
    beta = 1.3
    carried = x_matrix(probe, bath, beta).probe_corr
    fresh = probe_correlation(probe, beta)
    u = np.linspace(0.0, beta, 7)
    for name in ("value", "dbeta", "d2beta"):
        assert np.array_equal(getattr(carried, name)(u), getattr(fresh, name)(u))


def test_snr_bound_rotates_the_probe_coupling_once(monkeypatch):
    probe, bath = MODEL_PAIRS[3]
    rotated = []
    original = SpectralDecomposition.to_eigenbasis

    def counting(self, op):
        rotated.append(self)
        return original(self, op)

    monkeypatch.setattr(SpectralDecomposition, "to_eigenbasis", counting)
    snr_bound(probe, bath, 0.1, 1.0)
    assert len(rotated) == 1 and rotated[0] is probe.decomp


def test_near_degenerate_gaps_are_continuous():
    # the off-diagonal kernel has a removable singularity at E_n = E_m; closing
    # a small splitting must change the state correction smoothly.  Compare in
    # the original basis: the eigenbasis itself is arbitrary within the
    # degenerate subspace (column order may flip), the physical object is not.
    s = np.array([[0.2, 0.7, 0.1], [0.7, -0.3, 0.5], [0.1, 0.5, 0.1]], dtype=complex)

    def weighted_x_original(delta: float) -> np.ndarray:
        h = np.diag([0.5, 0.5 + delta, -1.0]).astype(complex)
        probe = probe_custom(h, s)
        exp = x_matrix(probe, bath_qubit(1.0), 1.0)
        return probe.decomp.from_eigenbasis(exp.weighted_x())

    base = weighted_x_original(0.0)
    # inside the analytic-limit window: drift at rounding level
    assert np.max(np.abs(weighted_x_original(1e-12) - base)) < 1e-12
    # across the branch boundary: only the genuine O(delta) change remains,
    # so the analytic limit agrees with the generic gap formula
    assert np.max(np.abs(weighted_x_original(1e-6) - base)) < 1e-7


@pytest.mark.parametrize("probe, bath", MODEL_PAIRS)
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_analytic_dbeta_matches_finite_differences(probe, bath, beta):
    exp = x_matrix(probe, bath, beta)
    fd = x_matrix_fd_dbeta(probe, bath, beta)
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(exp.x_dbeta - fd)) < 1e-6 * scale


def test_fd_path_rejects_fixed_beta_correlators():
    probe, bath = MODEL_PAIRS[1]
    corr = bath_correlation(bath, 1.0)
    with pytest.raises(ValueError, match="fixed-beta"):
        x_matrix_fd_dbeta(probe, corr, 1.0)


# ---------------------------------------------------------------------------
# assembled state
# ---------------------------------------------------------------------------


def test_mfg_at_zero_coupling_is_the_bare_state():
    probe, bath = MODEL_PAIRS[0]
    beta = 1.0
    exp = mfg_second_order(probe, bath, 0.0, beta)
    bare, _ = gibbs_state(probe.decomp, beta)
    assert np.max(np.abs(exp.state.matrix - bare.matrix)) < 1e-14
    assert exp.gamma == 0.0


def test_mfg_state_is_valid_density_operator():
    probe, bath = MODEL_PAIRS[1]
    exp = mfg_second_order(probe, bath, 0.05, 1.0)
    rho = exp.state.matrix
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert exp.state.min_eigenvalue() > -1e-12


def test_mfg_rejects_coupling_outside_perturbative_regime():
    probe, bath = MODEL_PAIRS[0]
    with pytest.raises(CouplingTooStrongError, match="too strong"):
        mfg_second_order(probe, bath, 3.0, 2.0)


def test_coupling_step_leaves_the_shared_expansion_unchanged():
    # one expansion serves a whole coupling grid: each step returns its own
    # copy and equals the one-shot assembly at that coupling
    probe, bath = MODEL_PAIRS[0]
    exp = x_matrix(probe, bath, 1.0)
    x, dx = exp.x.copy(), exp.x_dbeta.copy()
    weak, strong = exp.at_coupling(0.05), exp.at_coupling(0.1)
    assert np.array_equal(exp.x, x) and np.array_equal(exp.x_dbeta, dx)
    assert exp.gamma is None and exp.state is None and not exp.trace_renormalised
    assert (weak.gamma, strong.gamma) == (0.05, 0.1)
    assert not np.array_equal(weak.state.matrix, strong.state.matrix)
    one_shot = mfg_second_order(probe, bath, 0.1, 1.0)
    assert np.array_equal(strong.state.matrix, one_shot.state.matrix)


# ---------------------------------------------------------------------------
# first-order term for offset couplings
# ---------------------------------------------------------------------------


def test_p1_vanishes_for_zero_mean():
    probe = probe_qubit(1.0, 0.4)
    assert np.max(np.abs(p1_operator(probe, 1.0, 0.0))) == 0.0


def test_p1_is_traceless_and_hermitian_weighted():
    probe = probe_qubit(1.0, np.pi / 2.0)
    p1 = p1_operator(probe, 0.8, 0.3)
    assert abs(np.trace(p1)) < 1e-14
    assert np.max(np.abs(p1 - p1.conj().T)) < 1e-14


def test_p1_matches_exact_state_derivative():
    # qubit probe, projector-coupled bath qubit: the joint model is small
    # enough to differentiate the exact reduced state in gamma directly
    from fctherm import JointModel, exact_mfg, refine_linear

    probe = probe_qubit(1.0, np.pi / 2.0)
    bath = DiscreteBath(SZ, PROJ_UP, label="projector")
    beta = 1.1
    mean_b = float(np.exp(-beta) / (2.0 * np.cosh(beta)))

    def reduced(g: float) -> np.ndarray:
        return exact_mfg(JointModel(probe, bath, g), beta).matrix

    got = p1_operator(probe, beta, mean_b, basis="original")
    base = reduced(0.0)
    ref = np.empty_like(base)
    for i in range(2):
        for j in range(2):
            ref[i, j] = refine_linear(lambda g, i=i, j=j: (reduced(g)[i, j] - base[i, j]).real)
            ref[i, j] += 1j * refine_linear(lambda g, i=i, j=j: (reduced(g)[i, j] - base[i, j]).imag)
    assert np.max(np.abs(got - ref)) < 1e-7


def test_p1_unknown_basis_raises():
    with pytest.raises(ValueError, match="basis"):
        p1_operator(probe_qubit(), 1.0, 0.1, basis="weird")


# ---------------------------------------------------------------------------
# expanded logarithmic derivative
# ---------------------------------------------------------------------------


def test_sld_zeroth_order_is_energy_fluctuation_operator():
    probe, bath = MODEL_PAIRS[0]
    beta = 1.0
    sld = sld_second_order(x_matrix(probe, bath, beta))
    mean_e = float(np.dot(sld.populations, sld.evals))
    assert np.allclose(sld.l0_diag, mean_e - sld.evals, rtol=0, atol=1e-14)


def test_second_order_consumers_read_only_the_expansion():
    # beta, levels and populations come from the expansion itself, so an
    # expansion built for another beta or probe cannot be mislabelled
    for fn in (sld_second_order, cfi_energy_perturbative):
        assert list(inspect.signature(fn).parameters) == ["expansion"]
    sld = sld_second_order(x_matrix(*MODEL_PAIRS[0], 2.0))
    assert sld.beta == 2.0


def test_sld_diagonal_equals_dx_diagonal_exactly():
    probe, bath = MODEL_PAIRS[1]
    exp = x_matrix(probe, bath, 1.0)
    sld = sld_second_order(exp)
    assert np.array_equal(np.diag(sld.alpha), np.real(np.diag(exp.x_dbeta)))


def test_sld_total_is_hermitian_and_reuses_expansion():
    probe, bath = MODEL_PAIRS[0]
    exp = x_matrix(probe, bath, 1.0)
    sld = sld_second_order(exp)
    total = sld.total(0.1)
    assert np.max(np.abs(total - total.conj().T)) == 0.0
    assert sld.hermiticity_drift < 1e-10


def test_sld_solves_the_expanded_lyapunov_equation():
    # (L rho + rho L)/2 must reproduce d rho / d beta order by order: check
    # the gamma^2 block in the probe eigenbasis against its defining equation,
    # d(pi X)/dbeta = (dpi) X + pi dX with dpi_n = p_n (<H> - E_n)
    probe, bath = MODEL_PAIRS[0]
    beta = 1.0
    exp = x_matrix(probe, bath, beta)
    sld = sld_second_order(exp)
    p = exp.populations
    l0 = sld.l0_diag
    pi_x = exp.weighted_x()
    lhs = 0.5 * (
        sld.alpha * p[None, :]
        + p[:, None] * sld.alpha
        + np.diag(l0) @ pi_x
        + pi_x @ np.diag(l0)
    )
    rhs = (p * l0)[:, None] * exp.x + p[:, None] * exp.x_dbeta
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * max(1.0, np.max(np.abs(rhs)))


# ---------------------------------------------------------------------------
# real and complex arithmetic
# ---------------------------------------------------------------------------

REAL_PAIRS = [
    (probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0)),
    (probe_oscillator(1.0, n_trunc=12), ContinuumBath(1.0, 100.0, dim_exponent=2.0)),
    (probe_qubit(0.7, 0.3), bath_mode(1.0, 8)),
]


def _complexified(probe, where: str):
    """The probe with i eps (A - A^T), eps = 1e-300, added to its Hamiltonian
    or its coupling: the same model to every printed digit, but with a
    non-zero imaginary part, so it runs the complex path."""
    a = np.random.default_rng(probe.dim).standard_normal((probe.dim, probe.dim))
    tiny = 1j * 1e-300 * (a - a.T)
    h, s = probe.hamiltonian, probe.coupling
    if where == "hamiltonian":
        h = h + tiny
    else:
        s = s + tiny
    return probe_custom(h, s, dim_exponent=probe.dim_exponent)


def _assert_close(got, ref, scale):
    assert np.max(np.abs(np.asarray(got) - np.asarray(ref))) <= 1e-12 * scale


@pytest.mark.parametrize("where", ["hamiltonian", "coupling"])
@pytest.mark.parametrize("probe, bath", REAL_PAIRS)
def test_real_probes_run_in_real_arithmetic(probe, bath, where):
    beta = 1.3
    twin = _complexified(probe, where)
    assert probe.decomp.evecs.dtype == np.float64
    assert twin.decomp.evecs.dtype == (np.complex128 if where == "hamiltonian" else np.float64)

    real, cplx = x_matrix(probe, bath, beta), x_matrix(twin, bath, beta)
    for name in ("x", "x_dbeta"):
        r, c = getattr(real, name), getattr(cplx, name)
        assert r.dtype == np.float64 and c.dtype == np.complex128, name
        # compared as pi X and pi dX: row n of X carries e^{beta (E_n - E_m)},
        # so the complex solver's O(eps) eigenvector mixing reaches 1e-12 of
        # max|X| in the rows of the nearly empty top oscillator levels, while
        # the state correction pi X it enters is unaffected
        p = real.populations[:, None]
        _assert_close(p * c, p * r, np.max(np.abs(p * r)))

    sld_r = sld_second_order(real)
    sld_c = sld_second_order(cplx)
    assert sld_r.alpha.dtype == np.float64 and sld_c.alpha.dtype == np.complex128
    _assert_close(sld_c.alpha, sld_r.alpha, np.max(np.abs(sld_r.alpha)))

    rep_r, rep_c = snr_bound(probe, bath, 0.1, beta), snr_bound(twin, bath, 0.1, beta)
    for name in ("f0", "f2", "i2", "xi"):
        r = getattr(rep_r, name)
        _assert_close(getattr(rep_c, name), r, abs(r))
    # the oscillator's X01 and A01 vanish; measure them against their matrices
    _assert_close(rep_c.x01, rep_r.x01, np.max(np.abs(real.x)))
    _assert_close(rep_c.alpha01, rep_r.alpha01, np.max(np.abs(sld_r.alpha)))
