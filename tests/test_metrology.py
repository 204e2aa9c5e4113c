"""Fisher information routes, SNR reports, sensitivity kernel, asymptotes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fctherm import (
    ContinuumBath,
    OscillatorCorrelation,
    bath_mode,
    bath_qubit,
    cfi_energy_general,
    cfi_energy_perturbative,
    default_gamma_grid,
    eigendecompose,
    high_T_asymptote,
    order_fit,
    probe_correlation,
    probe_oscillator,
    probe_qubit,
    qfi_from_sld,
    qfi_perturbative_integral,
    qfi_perturbative_sum,
    sld_solve,
    snr_bound,
    snr_kernel,
    x_matrix,
    xi_via_spectral_kernel,
)
from fctherm.cli import SLOPE_WINDOWS


# ---------------------------------------------------------------------------
# bare Fisher information
# ---------------------------------------------------------------------------


def test_energy_variance_qubit_closed_form():
    eps, beta = 1.4, 0.9
    got = probe_correlation(probe_qubit(eps, 0.3), beta).energy_var
    exact = (eps / 2.0) ** 2 / math.cosh(beta * eps / 2.0) ** 2
    assert got == pytest.approx(exact, rel=1e-13)


def test_energy_variance_oscillator_closed_form():
    omega0, beta = 1.0, 1.5
    got = probe_correlation(probe_oscillator(omega0, beta_design=beta), beta).energy_var
    exact = omega0**2 / (4.0 * math.sinh(beta * omega0 / 2.0) ** 2)
    assert got == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# coupling-correction routes
# ---------------------------------------------------------------------------


def test_qfi_routes_agree_on_spin_boson_pair():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    beta = 1.0
    f0_a, f2_a = qfi_perturbative_integral(probe, bath, beta)
    f0_b, f2_b = qfi_perturbative_sum(probe, bath, beta)
    assert f0_a == f0_b
    assert abs(f2_a - f2_b) < 1e-12 * max(abs(f2_a), 1.0)


def test_energy_measurement_saturates_quantum_coefficient():
    # the second-order CFI of the bare energy measurement is built from the
    # same diagonal data as the sum-route QFI; they must coincide identically
    probe, bath = probe_qubit(1.0, 1.5 * np.pi), ContinuumBath(1.0, 100.0)
    beta = 2.0
    _, f2 = qfi_perturbative_sum(probe, bath, beta)
    _, i2 = cfi_energy_perturbative(x_matrix(probe, bath, beta))
    assert i2 == f2


@pytest.mark.parametrize("beta", [0.7, 1.3, 3.0])
@pytest.mark.parametrize(
    "probe, bath",
    [
        (probe_qubit(1.0, 0.7), ContinuumBath(1.0, 5.0)),
        (probe_qubit(1.0, np.pi / 2.0), ContinuumBath(1.0, 5.0)),
        (probe_oscillator(1.0, n_trunc=12), ContinuumBath(1.0, 5.0, dim_exponent=2.0)),
    ],
    ids=["qubit-0.7", "qubit-pi/2", "oscillator-12"],
)
def test_assembled_state_qfi_reaches_f2_with_coherences(probe, bath, beta):
    # the QFI of pi (1 + gamma^2 X), coherences included, from the SLD of the
    # full state: no population formula enters, so this checks F2 = I2
    # independently of the level-sum identity A_nn = dX_nn
    exp = x_matrix(probe, bath, beta)
    corr = exp.probe_corr
    p, dp = corr.populations, corr.dpopulations
    de = corr.evals - corr.mean_energy  # dp_n = -de_n p_n
    f0, f2 = qfi_perturbative_integral(probe, bath, beta)
    gammas = default_gamma_grid(8, 1e-3, 3e-2)
    devs = []
    for g in gammas:
        rho = corr.decomp.from_eigenbasis(np.diag(p) + g**2 * exp.pi_x)
        drho = corr.decomp.from_eigenbasis(
            np.diag(dp) + g**2 * (exp.pi_dx - de[:, None] * exp.pi_x)
        )
        devs.append(qfi_from_sld(rho, sld_solve(rho, drho)) - (f0 + g**2 * f2))
    fit = order_fit(gammas, devs, scale=f0)
    lo, hi = SLOPE_WINDOWS["second_order"]
    assert not fit.indistinguishable
    assert lo <= fit.slope <= hi, f"|QFI - F_pert| slope {fit.slope:.4f} outside [{lo}, {hi}]"


def test_cfi_energy_general_hand_value():
    dec = eigendecompose(np.diag([-1.0, 1.0]).astype(complex))
    rho = np.diag([0.7, 0.3]).astype(complex)
    drho = np.diag([-0.1, 0.1]).astype(complex)
    got = cfi_energy_general(dec, rho, drho)
    assert got == pytest.approx(0.01 / 0.7 + 0.01 / 0.3, rel=1e-14)


def test_cfi_energy_general_divergence_raises():
    dec = eigendecompose(np.diag([-1.0, 1.0]).astype(complex))
    rho = np.diag([1.0, 0.0]).astype(complex)
    drho = np.diag([-1e-3, 1e-3]).astype(complex)
    with pytest.raises(ValueError, match="derivative"):
        cfi_energy_general(dec, rho, drho)


def test_correlators_built_for_another_beta_are_refused():
    # a correlator built at beta = 5 once gave F2 = -0.1257 at beta = 2
    # instead of -0.5570; a bath now always comes as a specification, and a
    # supplied probe correlator is checked against beta
    probe, bath, beta = probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 2.0
    _, f2 = qfi_perturbative_integral(probe, bath, beta)
    assert f2 == pytest.approx(-0.5570253003991168, rel=1e-12)
    assert snr_bound(probe, bath, 0.1, beta).f2 == f2
    stale_probe = probe_correlation(probe, 5.0)
    with pytest.raises(ValueError, match="probe correlator was built for a different beta"):
        qfi_perturbative_integral(probe, bath, beta, probe_corr=stale_probe)


def test_integral_route_reads_f0_from_the_level_sum_correlator():
    # F0 is the energy variance the eigenbasis correlator already holds; a
    # closed-form correlator carries no levels, so it is refused there
    probe, bath, beta = probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 2.0
    f0, _ = qfi_perturbative_integral(probe, bath, beta)
    assert f0 == probe_correlation(probe, beta).energy_var
    closed = OscillatorCorrelation(1.0, beta)
    with pytest.raises(TypeError, match="EigenbasisCorrelation"):
        qfi_perturbative_integral(probe, bath, beta, probe_corr=closed)


def test_spectral_kernel_route_needs_a_continuum_bath():
    probe, beta = probe_qubit(1.0, 0.7), 2.0
    with pytest.raises(TypeError, match="continuum bath"):
        xi_via_spectral_kernel(probe, bath_qubit(1.0), beta)


# ---------------------------------------------------------------------------
# reporting bundle
# ---------------------------------------------------------------------------


def test_snr_bound_field_consistency():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    rep = snr_bound(probe, bath, gamma=0.05, beta=1.3)
    assert rep.temperature == pytest.approx(1.0 / 1.3)
    assert rep.c_bare == rep.beta**2 * rep.f0
    assert rep.xi == rep.beta**2 * rep.f2
    assert rep.snr_sq_pert == rep.c_bare + rep.gamma**2 * rep.xi
    assert rep.snr_sq_local == rep.c_bare
    assert rep.validity_ratio > 0.0
    assert np.isfinite(rep.x01) and np.isfinite(rep.alpha01)


def test_snr_bound_zero_coupling_reduces_to_local_bound():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    rep = snr_bound(probe, bath, gamma=0.0, beta=1.3)
    assert rep.snr_sq_pert == rep.snr_sq_local
    assert rep.validity_ratio == 0.0


def test_validity_ratio_scales_with_coupling_squared():
    probe, bath = probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0)
    r1 = snr_bound(probe, bath, gamma=0.05, beta=1.0).validity_ratio
    r2 = snr_bound(probe, bath, gamma=0.10, beta=1.0).validity_ratio
    assert r2 == pytest.approx(4.0 * r1, rel=1e-12)


# ---------------------------------------------------------------------------
# frequency-resolved kernel
# ---------------------------------------------------------------------------


def test_snr_kernel_scalar_and_vector_forms_agree():
    corr = probe_correlation(probe_qubit(1.0, 0.8), 1.2)
    omegas = np.array([0.3, 1.0, 4.0])
    vec = snr_kernel(corr, omegas)
    assert isinstance(vec, np.ndarray) and vec.shape == (3,)
    for i, w in enumerate(omegas):
        single = snr_kernel(corr, float(w))
        assert isinstance(single, float)
        assert single == pytest.approx(vec[i], rel=1e-14)


def direct_kernel(corr, beta, omega, n=400):
    """f(T, omega) transcribed on its own Gauss-Legendre rule over [0, beta]."""
    x, wx = np.polynomial.legendre.leggauss(n)
    u, wu = 0.5 * beta * (x + 1.0), 0.5 * beta * wx
    tail = beta - u
    den = -np.expm1(-beta * omega)
    k = (np.exp(-u * omega) + np.exp(-tail * omega)) / den
    dk = -omega * (np.exp(-tail * omega) + np.exp(-(beta + u) * omega)) / den**2
    integrand = tail * k * corr.d2beta(u) + 2.0 * (k + tail * dk) * corr.dbeta(u)
    return beta**2 / np.pi * float(np.dot(wu, integrand))


def test_snr_kernel_takes_beta_from_its_correlator():
    # the kernel has no beta of its own to disagree with the correlator's
    omegas = np.array([0.3, 1.0, 4.0])
    kernels = {}
    for beta in (1.0, 2.0):
        corr = probe_correlation(probe_qubit(1.0, 0.7), beta)
        kernels[beta] = snr_kernel(corr, omegas)
        for w, f in zip(omegas, kernels[beta]):
            assert f == pytest.approx(direct_kernel(corr, beta, w), rel=1e-11)
    # at omega = 1 the two temperatures give -0.0658 and -0.261
    assert np.all(np.abs(kernels[2.0] - kernels[1.0]) > 0.1 * np.abs(kernels[2.0]))


def test_snr_kernel_is_f2_against_one_truncated_bath_mode():
    # F2 is linear in the bath correlator, so f(T, w) is 2 w beta^2 / pi times
    # the F2 of a single unit-mass mode at w; both sides use the plain 64-node
    # Legendre rule, and 60 levels leave no visible truncation for beta w >= 0.6
    probe = probe_qubit(1.0, 0.7)
    for beta, omega in ((1.0, 1.0), (1.0, 4.0), (2.0, 1.0), (2.0, 4.0), (2.0, 0.3)):
        kernel = snr_kernel(probe_correlation(probe, beta), omega, 64)
        _, f2 = qfi_perturbative_integral(probe, bath_mode(omega, 60), beta, 64)
        assert kernel == pytest.approx(2.0 * omega * beta**2 / np.pi * f2, rel=1e-12)


def test_snr_kernel_refuses_nonpositive_frequency():
    corr = probe_correlation(probe_qubit(1.0, 0.7), 1.0)
    for omega in (0.0, -1.0, np.inf, np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="oscillator frequency must be positive"):
            snr_kernel(corr, omega)


def test_kernel_integral_reproduces_direct_route():
    probe = probe_qubit(1.0, 1.5 * np.pi)
    bath = ContinuumBath(1.0, 100.0)
    beta = 1.0
    _, f2 = qfi_perturbative_integral(probe, bath, beta)
    xi_direct = beta**2 * f2
    xi_kernel = xi_via_spectral_kernel(probe, bath, beta)
    assert abs(xi_kernel - xi_direct) < 1e-6 * abs(xi_direct)


def test_coupling_correction_vanishes_at_high_temperature():
    probe = probe_qubit(1.0, 1.5 * np.pi)
    bath = ContinuumBath(1.0, 100.0)
    cold = xi_via_spectral_kernel(probe, bath, 2.0)
    hot = xi_via_spectral_kernel(probe, bath, 0.02)
    assert abs(hot) < 1e-3 * abs(cold)


# ---------------------------------------------------------------------------
# gamma function and high-temperature closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0, 7.5, 10.0])
def test_gamma_function_matches_stdlib(x):
    # the asymptote carries its exponent dependence only through Gamma(s),
    # and Gamma(1) = 1, so the ratio to the Ohmic value is Gamma(s) itself
    probe = probe_qubit(1.3, 0.6)
    ohmic = high_T_asymptote(probe, ContinuumBath(1.0, 2.5), 0.02)
    other = high_T_asymptote(probe, ContinuumBath(x, 2.5), 0.02)
    assert other / ohmic == pytest.approx(math.gamma(x), rel=1e-12)


def test_high_T_asymptote_closed_forms():
    beta = 0.01
    qubit = probe_qubit(2.0, 0.7)
    bath = ContinuumBath(1.5, 3.0)
    got = high_T_asymptote(qubit, bath, beta)
    exact = -2.0 * math.sin(0.7) ** 2 * 4.0 * 3.0 * math.gamma(1.5) * beta**3 / (3.0 * math.pi)
    assert got == pytest.approx(exact, rel=1e-12)

    # the bath weight is cutoff ** dim_exponent, not a per-probe power
    got = high_T_asymptote(qubit, ContinuumBath(1.5, 3.0, dim_exponent=2.0), beta)
    assert got == pytest.approx(3.0 * exact, rel=1e-12)

    osc = probe_oscillator(1.0, beta_design=1.0)
    got = high_T_asymptote(osc, bath, beta)
    # cutoff ** dim_exponent = 3 on this bath; the probe's position is unit-mass
    exact = -3.0 * math.gamma(1.5) * beta**2 / (6.0 * math.pi)
    assert got == pytest.approx(exact, rel=1e-12)


def test_high_T_asymptote_unknown_probe_raises():
    from fctherm import probe_custom

    free = probe_custom(np.diag([0.0, 1.0]).astype(complex), np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="probe kind"):
        high_T_asymptote(free, ContinuumBath(1.0, 1.0), 0.01)


def test_rederived_asymptote_is_half_the_pinned_form():
    # the formerly tabulated qubit constant -4 sin^2(theta) eps^2 Omega Gamma(s)
    # beta^3 / (3 pi) was twice the small-beta limit of the kernel integral
    qubit = probe_qubit(1.0, 1.1)
    bath = ContinuumBath(1.0, 2.0)
    beta = 0.05
    old = -4.0 * math.sin(1.1) ** 2 * 2.0 * math.gamma(1.0) * beta**3 / (3.0 * math.pi)
    assert high_T_asymptote(qubit, bath, beta) == pytest.approx(0.5 * old, rel=1e-14)
