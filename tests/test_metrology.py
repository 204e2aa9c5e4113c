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
    probe_custom,
    sld_second_order,
    snr_kernel,
    x_matrix,
    xi_via_spectral_kernel,
)
from fctherm import metrology, models, perturbation
from fctherm.cli import SLOPE_WINDOWS
from fctherm.models import MIDPOINT_BETA_GAP
from references import gamma_grid, plain_decay


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
    gammas = gamma_grid(1e-3, 3e-2)
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
    # one ulp away is another beta too: the integrand's beta - u is the bath
    # correlator's, built at beta, and the probe's levels must be at the same one
    for other in (5.0, beta * (1.0 + 2.0**-52)):
        stale_probe = probe_correlation(probe, other)
        with pytest.raises(ValueError, match="probe correlator was built for a different beta"):
            qfi_perturbative_integral(probe, bath, beta, probe_corr=stale_probe)
    same = probe_correlation(probe, beta)
    assert qfi_perturbative_integral(probe, bath, 2, probe_corr=same) == (same.energy_var, f2)


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


def _full_expansion_fields(probe, bath, beta):
    """(i2, x01, alpha01) read off the full expansion, as snr_bound reports them."""
    exp = x_matrix(probe, bath, beta)
    x01 = complex(exp.pi_x[0, 1] / exp.populations[0])
    return cfi_energy_perturbative(exp)[1], x01, complex(sld_second_order(exp)[0, 1]), exp


def _random_custom_probe(seed, d=5, gap01=None):
    """A dense real d-level probe in a random basis; ``gap01`` fixes the
    lowest gap."""
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(0.0, 3.0, d))
    if gap01 is not None:
        levels[1] = levels[0] + gap01
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    s = rng.normal(size=(d, d))
    return probe_custom(q @ np.diag(levels) @ q.T, s + s.T)


@pytest.mark.parametrize(
    "probe, beta",
    [(probe_qubit(1.0, 0.7), 1.3)]
    + [(probe_oscillator(1.0, beta_design=b), b) for b in (0.1, 1.0, 10.0)],
    ids=["qubit", "osc-0.1", "osc-1", "osc-10"],
)
def test_snr_bound_block_equals_full_expansion_bit_for_bit(probe, beta):
    # the qubit's block is the whole matrix; the oscillator's coupling puts
    # one nonzero term in each entry of the pair sums, so its 2 x 2 products
    # round as the full GEMM's block does
    bath = ContinuumBath(1.0, 100.0, dim_exponent=probe.dim_exponent)
    rep = snr_bound(probe, bath, 0.1, beta)
    i2, x01, a01, _ = _full_expansion_fields(probe, bath, beta)

    def bits(*values):  # float.hex tells -0.0 from 0.0, as the CSV does
        return [float(part).hex() for v in values for part in (v.real, v.imag)]

    assert bits(rep.i2, rep.x01, rep.alpha01) == bits(i2, x01, a01)


@pytest.mark.parametrize("seed", range(6))
def test_snr_bound_block_matches_full_expansion_for_dense_probe(seed):
    probe = _random_custom_probe(seed)
    bath = ContinuumBath(1.0, 20.0)
    rep = snr_bound(probe, bath, 0.1, 0.8)
    i2, x01, a01, exp = _full_expansion_fields(probe, bath, 0.8)
    assert rep.i2 == i2  # the diagonals take no pair sum
    x_scale = np.max(np.abs(exp.pi_x)) / exp.populations[0]
    assert abs(rep.x01 - x01) <= 1e-13 * x_scale
    assert abs(rep.alpha01 - a01) <= 1e-13 * np.max(np.abs(sld_second_order(exp)))
    assert x01 != 0.0 and a01 != 0.0


def test_snr_bound_block_takes_the_midpoint_form_for_a_near_pair(monkeypatch):
    beta = 1.0
    probe = _random_custom_probe(11, gap01=1e-5)
    evals = probe_correlation(probe, beta).evals
    assert abs(beta * (evals[1] - evals[0])) < MIDPOINT_BETA_GAP
    blocks = []
    midpoint = perturbation._midpoint

    def spy(s_eig, g, k):
        blocks.append(k)
        return midpoint(s_eig, g, k)

    monkeypatch.setattr(perturbation, "_midpoint", spy)
    bath = ContinuumBath(1.0, 20.0)
    rep = snr_bound(probe, bath, 0.1, beta)
    assert blocks == [2, 2]
    i2, x01, a01, exp = _full_expansion_fields(probe, bath, beta)
    assert rep.i2 == i2
    assert abs(rep.x01 - x01) <= 1e-13 * np.max(np.abs(exp.pi_x)) / exp.populations[0]
    assert abs(rep.alpha01 - a01) <= 1e-13 * np.max(np.abs(sld_second_order(exp)))


def test_snr_bound_builds_no_full_expansion(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("snr_bound reached a full-matrix routine")

    for module in (perturbation, metrology):
        for name in ("x_matrix", "sld_second_order"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    rep = snr_bound(probe_oscillator(1.0, beta_design=0.3), ContinuumBath(1.0, 100.0, 2.0),
                    0.1, 0.3)
    assert np.isfinite(rep.i2) and np.isfinite(rep.alpha01)


def test_snr_bound_gap_tables_cover_the_two_columns_its_block_reads(monkeypatch):
    shapes = []
    gap_integrals = perturbation._kernels.gap_integrals

    def spy(*args, **kwargs):
        out = gap_integrals(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(perturbation._kernels, "gap_integrals", spy)
    probe = probe_oscillator(1.0, n_trunc=40, beta_design=1.0)
    bath = ContinuumBath(1.0, 100.0, 2.0)
    snr_bound(probe, bath, 0.1, 1.0)
    assert shapes == [(40, 2)] * 4
    shapes.clear()
    x_matrix(probe, bath, 1.0)
    assert shapes == [(40, 40)] * 4


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


@pytest.mark.parametrize("probe", [probe_qubit(1.3, 2.1), probe_oscillator(1.0, 40)],
                         ids=["qubit", "oscillator"])
@pytest.mark.parametrize("s, cutoff", [(1.0, 100.0), (0.5, 5.0), (3.0, 1000.0)])
def test_spectral_kernel_route_keeps_its_bits_without_the_underflowing_exponentials(
        cold_caches, monkeypatch, probe, s, cutoff):
    # the harmonic modes' tables write an exact 0 for an exponent below -700;
    # every integral they join keeps the bits of the plain np.exp tables
    bath = ContinuumBath(s, cutoff, 1.0 - 2.0 * probe.dim_exponent)
    betas = (0.05, 0.7, 4.0, 12.0)
    cut = [xi_via_spectral_kernel(probe, bath, beta) for beta in betas]
    monkeypatch.setattr(models, "_decay", plain_decay)
    plain = [xi_via_spectral_kernel(probe, bath, beta) for beta in betas]
    assert np.array_equal(cut, plain)
    assert np.all(np.isfinite(cut))


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
