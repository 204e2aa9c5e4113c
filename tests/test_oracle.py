"""Exact small-system reference: joint states, exact Fisher data, scaling fits."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fctherm import (
    DensityOperator,
    DiscreteBath,
    JointModel,
    bath_correlation,
    bath_mode,
    bath_qubit,
    default_gamma_grid,
    eigendecompose,
    exact_fishers,
    exact_mfg,
    gibbs_state,
    oracle,
    order_fit,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    qfi_perturbative_integral,
    reference_two_qubit_models,
    trace_distance,
)
from fctherm.linalg import gibbs_populations
from fctherm.oracle import _reduced_thermal_and_dbeta
from references import exact_sld, partial_trace_bath


def random_hermitian(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


# ---------------------------------------------------------------------------
# joint model plumbing
# ---------------------------------------------------------------------------


def test_partial_trace_of_product_operators():
    a = random_hermitian(3, 1)
    b = random_hermitian(4, 2)
    got = partial_trace_bath(np.kron(a, b), 3, 4)
    assert np.max(np.abs(got - a * np.trace(b))) < 1e-13


@pytest.mark.parametrize("probe, bath, dims", [
    (probe_qubit(1.0, 0.5), bath_qubit(0.7), (2, 2)),
    # complex probe coupling sigma_y, dense bath Hamiltonian, unequal dimensions
    (probe_custom(np.diag([0.5, -0.5]), np.array([[0.0, -1j], [1j, 0.0]])),
     DiscreteBath(random_hermitian(3, 5).real, random_hermitian(3, 6)), (2, 3)),
], ids=["real", "complex"])
def test_joint_hamiltonian_assembly(probe, bath, dims):
    g = 0.1
    jm = JointModel(probe, bath, g)
    assert jm.dims == dims
    ds, db = dims
    expected = (
        np.kron(probe.hamiltonian, np.eye(db))
        + np.kron(np.eye(ds), bath.hamiltonian)
        + g * np.kron(probe.coupling, bath.coupling)
    )
    # the same products in the same order as np.kron: equal to the bit
    assert jm.hamiltonian.dtype == expected.dtype
    assert np.array_equal(jm.hamiltonian, expected)


def test_cached_operators_are_not_constructor_keywords():
    # a joint model or discrete bath diagonalises its own Hamiltonian once;
    # neither takes one from outside
    probe, bath = probe_qubit(1.0, 0.7), bath_qubit(1.0)
    other = JointModel(probe_qubit(1.0, 0.2), bath, 0.3)
    with pytest.raises(TypeError):
        JointModel(probe, bath, 0.1, _hamiltonian=other.hamiltonian)
    with pytest.raises(TypeError):
        JointModel(probe, bath, 0.1, _decomp=other.decomp)
    with pytest.raises(TypeError):
        DiscreteBath(bath.hamiltonian, bath.coupling, _decomp=other.decomp)
    joint = JointModel(probe, bath, 0.1)
    assert joint.decomp is joint.decomp
    # only the decomposition is kept: a run holds one per coupling
    assert "hamiltonian" not in vars(joint)
    assert bath.decomp is bath.decomp


def test_joint_dimension_limit():
    probe = probe_qubit(1.0, 0.1)
    big = bath_mode(1.0, n_levels=2100)  # 2 * 2100 > 4096
    with pytest.raises(ValueError, match="4096"):
        JointModel(probe, big, 0.01)


SY = np.array([[0.0, -1j], [1j, 0.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.mark.parametrize(
    "joint, evecs_dtype",
    [
        # real joint Hamiltonian: oscillator probe x truncated mode, d = 48
        (JointModel(probe_oscillator(1.0, n_trunc=8), bath_mode(0.45, n_levels=6), 0.07),
         np.float64),
        # imaginary coupling sigma_y (x) sigma_x: the complex path
        (JointModel(probe_custom(SZ, SY), DiscreteBath(0.6 * SZ, SX), 0.3), np.complex128),
    ],
    ids=["real-oscillator-mode", "sigma_y-coupling"],
)
def test_reduced_thermal_equals_partial_trace_of_joint_gibbs_state(joint, evecs_dtype):
    dec = joint.decomp
    assert dec.evecs.dtype == evecs_dtype
    for beta in (0.3, 1.0, 4.0):
        p = gibbs_populations(dec.evals, beta)
        rho_joint = (dec.evecs * p) @ dec.evecs.conj().T
        full = partial_trace_bath(rho_joint, *joint.dims)
        assert np.max(np.abs(exact_mfg(joint, beta).matrix - full)) < 1e-14


def test_exact_mfg_at_zero_coupling_is_bare():
    probe, bath = probe_qubit(1.0, 0.9), bath_qubit(1.0)
    beta = 1.2
    rho = exact_mfg(JointModel(probe, bath, 0.0), beta)
    bare = gibbs_state(probe.decomp, beta)
    assert trace_distance(rho, bare) < 1e-14


def test_trace_distance_basics():
    p = DensityOperator(np.diag([0.7, 0.3]))
    q = DensityOperator(np.diag([0.4, 0.6]))
    assert trace_distance(p, p) == 0.0
    assert trace_distance(p, q) == pytest.approx(0.3, rel=1e-14)
    assert trace_distance(p, q) == pytest.approx(trace_distance(q, p), rel=1e-14)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_trace_distance_reads_only_eigenvalues(field, monkeypatch):
    # LAPACK's eigenvalues alone give the half-sum that the full checked
    # decomposition of the difference gives, and no eigenvectors are formed
    rng = np.random.default_rng(11)
    cases = []
    for d in (2, 3, 5, 8, 16):
        states = []
        for _ in range(2):
            m = rng.standard_normal((d, d))
            if field == "complex":
                m = m + 1j * rng.standard_normal((d, d))
            rho = m @ m.conj().T
            states.append(DensityOperator(rho / np.trace(rho).real))
        diff = states[0].matrix - states[1].matrix
        want = 0.5 * float(np.sum(np.abs(eigendecompose(0.5 * (diff + diff.conj().T)).evals)))
        cases.append((states, want))

    def refuse(*args, **kwargs):
        raise AssertionError("trace_distance formed eigenvectors")

    monkeypatch.setattr(oracle, "eigendecompose", refuse)
    for states, want in cases:
        assert abs(trace_distance(*states) - want) <= 1e-15, (field, states[0].matrix.shape)


# ---------------------------------------------------------------------------
# exact state responds at second order in the coupling
# ---------------------------------------------------------------------------


def test_exact_state_deviates_from_bare_at_second_order():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    beta = 1.0
    bare = gibbs_state(probe.decomp, beta)
    gammas = default_gamma_grid()
    devs = [
        trace_distance(exact_mfg(JointModel(probe, bath, g), beta), bare) for g in gammas
    ]
    fit = order_fit(gammas, devs, scale=max(devs))
    assert not fit.indistinguishable
    assert 1.9 < fit.slope < 2.1
    assert fit.r_squared > 0.9999


def test_exact_sld_solves_its_defining_equation():
    probe, bath = probe_qubit(1.0, 0.8), bath_qubit(1.0)
    beta = 1.1
    jm = JointModel(probe, bath, 0.08)
    sld = exact_sld(jm, beta)
    rho = exact_mfg(jm, beta).matrix
    # a Richardson-refined central difference, independent of the oracle's derivative
    h = 1e-5 * beta
    rp = exact_mfg(jm, beta + h).matrix
    rm = exact_mfg(jm, beta - h).matrix
    rp2 = exact_mfg(jm, beta + 0.5 * h).matrix
    rm2 = exact_mfg(jm, beta - 0.5 * h).matrix
    d1 = (rp - rm) / (2.0 * h)
    d2 = (rp2 - rm2) / h
    dr = (4.0 * d2 - d1) / 3.0
    resid = 0.5 * (sld @ rho + rho @ sld) - dr
    assert np.max(np.abs(resid)) < 1e-9


def test_exact_fishers_ordering_and_positivity():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    f, i = exact_fishers(JointModel(probe, bath, 0.1), 1.0)
    assert f >= i >= 0.0


@pytest.mark.parametrize(
    "probe, bath, gamma, beta",
    [
        (probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0), 0.1, 1.0),
        (probe_oscillator(1.0, n_trunc=10), bath_mode(0.7, 10), 0.05, 1.3),
    ],
    ids=["qubit-qubit", "oscillator-mode-d100"],
)
def test_exact_state_derivative_matches_central_difference(probe, bath, gamma, beta):
    jm = JointModel(probe, bath, gamma)
    rho, drho = _reduced_thermal_and_dbeta(jm, beta)
    assert np.array_equal(rho, exact_mfg(jm, beta).matrix)
    h = 1e-5 * beta
    fd = (exact_mfg(jm, beta + h).matrix - exact_mfg(jm, beta - h).matrix) / (2.0 * h)
    assert np.max(np.abs(drho - fd)) <= 1e-8 * np.max(np.abs(fd))
    # a trace-preserving family to rounding, far inside sld_solve's 1e-10 limit
    assert abs(np.trace(drho)) <= 1e-14


def test_exact_fishers_resolve_fourth_order_at_weak_coupling():
    # below gamma = 1e-2 the gamma^4 truncation of F is smaller than the
    # rounding noise of a finite-difference beta-derivative, so this window
    # resolves only with the exact one
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    beta = 1.0
    f0, f2 = qfi_perturbative_integral(probe, bath, beta)
    gammas = default_gamma_grid(8, 1e-3, 1e-2)
    f_vals, trunc = [], []
    for g in gammas:
        f, _ = exact_fishers(JointModel(probe, bath, float(g)), beta)
        f_vals.append(f)
        trunc.append(abs(f - (f0 + g**2 * f2)))
    fit = order_fit(gammas, trunc, scale=max(f_vals))
    assert 3.8 <= fit.slope <= 4.2
    assert fit.r_squared > 0.9999


def _plain_eigh_qfi(probe, bath, gamma: float, beta: float) -> float:
    """F = 2 sum_ij |<i|d_beta rho|j>|^2 / (lambda_i + lambda_j) in the
    eigenbasis of the reduced state, every decomposition a bare LAPACK eigh."""
    ds, db = probe.dim, bath.hamiltonian.shape[0]
    h = (
        np.kron(probe.hamiltonian, np.eye(db))
        + np.kron(np.eye(ds), bath.hamiltonian)
        + gamma * np.kron(probe.coupling, bath.coupling)
    )
    e, v = np.linalg.eigh(h)
    e = e - e[0]
    p = np.exp(-beta * e)
    p /= p.sum()

    def reduced(weights):
        return partial_trace_bath((v * weights) @ v.conj().T, ds, db)

    lam, u = np.linalg.eigh(reduced(p))
    assert lam[0] > 0.0
    dr = u.conj().T @ reduced(p * (np.dot(p, e) - e)) @ u
    return float(np.sum(2.0 * np.abs(dr) ** 2 / (lam[:, None] + lam[None, :])))


def test_exact_qfi_of_a_cold_many_level_probe_matches_plain_eigh():
    # at beta = 2 the reduced state of a 16-level oscillator has eigenvalues
    # down to 1e-13, closer to one another than 1e-12; each must keep its
    # own eigenvector inside sld_solve
    probe, bath = probe_oscillator(1.0, n_trunc=16), bath_mode(0.45, 8)
    f, _ = exact_fishers(JointModel(probe, bath, 0.05), 2.0)
    ref = _plain_eigh_qfi(probe, bath, 0.05, 2.0)
    assert abs(f - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# order-of-scaling fits
# ---------------------------------------------------------------------------


def test_order_fit_recovers_synthetic_power_law():
    g = default_gamma_grid()
    fit = order_fit(g, 0.37 * g**4, scale=1.0)
    assert fit.slope == pytest.approx(4.0, abs=1e-10)
    assert 10.0**fit.intercept == pytest.approx(0.37, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.kept.all()


def test_order_fit_discards_points_below_noise_floor():
    g = default_gamma_grid()
    d = 1e-3 * g**2
    d[0] = 1e-17  # pure rounding noise at the smallest coupling
    fit = order_fit(g, d, scale=1.0)
    assert not fit.kept[0] and fit.kept[1:].all()
    assert fit.slope == pytest.approx(2.0, abs=1e-6)


def test_order_fit_flags_identically_vanishing_deviations():
    g = default_gamma_grid()
    fit = order_fit(g, np.full(g.size, 1e-18), scale=1.0)
    assert fit.indistinguishable
    assert math.isnan(fit.slope) and math.isnan(fit.intercept)


def test_order_fit_input_validation():
    with pytest.raises(ValueError, match="five"):
        order_fit([0.1, 0.2, 0.3], [1, 2, 3])
    g = default_gamma_grid()
    with pytest.raises(ValueError, match="equal length"):
        order_fit(g, g[:-1])
    bad = g.copy()
    bad[0] = -bad[0]
    with pytest.raises(ValueError, match="positive"):
        order_fit(bad, g)
    # NaN or inf in either input is refused, neither dropped as if below the
    # noise floor nor passed to the fit
    d = 0.3 * g**4
    cases = []
    for at, val in (([2, 5], np.nan), ([4], np.inf)):
        bad_d = d.copy()
        bad_d[at] = val
        cases.append((g, bad_d))
    for val in (np.nan, np.inf):
        bad_g = g.copy()
        bad_g[1] = val
        cases.append((bad_g, d))
    for gam, dev in cases:
        with pytest.raises(ValueError, match="finite"):
            order_fit(gam, dev)


def test_default_gamma_grid_shape():
    g = default_gamma_grid()
    assert g.size == 8
    assert g[0] == pytest.approx(1e-2) and g[-1] == pytest.approx(1e-1)
    assert np.allclose(np.diff(np.log(g)), np.log(g[1] / g[0]), rtol=1e-12)


# ---------------------------------------------------------------------------
# closed-form two-qubit reference models
# ---------------------------------------------------------------------------


def test_reference_models_have_expected_structure():
    models = reference_two_qubit_models()
    assert set(models) == {"dephasing", "dissipative"}
    for name, model in models.items():
        assert model.coherence_axis in ("x", "y", "z")
        jm = model.joint(0.05)
        assert jm.dims == (2, 2)
        coeffs = model.coeffs(1.0)
        assert {"state_linear", "state_quadratic", "env_mean"} <= set(coeffs)


def test_reference_env_means_match_bath_thermodynamics():
    models = reference_two_qubit_models()
    for beta in (0.5, 1.0, 2.0):
        for name, model in models.items():
            expected = model.coeffs(beta)["env_mean"]
            got = bath_correlation(model.bath, beta).mean
            assert got == pytest.approx(expected, rel=1e-12), (name, beta)
