"""Probe/bath factories, spectral densities, and thermal correlators."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from fctherm import (
    ContinuumBath,
    ContinuumBathCorrelation,
    DiscreteBath,
    EigenbasisCorrelation,
    NonzeroMeanError,
    OscillatorCorrelation,
    bath_correlation,
    bath_mode,
    bath_qubit,
    oscillator_levels,
    probe_correlation,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    quad_imaginary_time,
    quad_thermal_frequency,
    snr_bound,
    spectral_density,
    x_matrix,
)
from fctherm import _kernels, models
from fctherm.models import SIGMA_X
from references import continuum_bath_rows, continuum_bath_tables

SZ = np.diag([1.0, -1.0]).astype(complex)
PROJ_UP = np.diag([1.0, 0.0]).astype(complex)


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------


def test_continuum_bath_validation():
    with pytest.raises(ValueError):
        ContinuumBath(s=0.0, cutoff=1.0)
    with pytest.raises(ValueError):
        ContinuumBath(s=1.0, cutoff=-2.0)
    for s, cutoff in ((math.nan, 1.0), (1.0, math.nan)):  # NaN passes "<= 0"
        with pytest.raises(ValueError, match="positive"):
            ContinuumBath(s=s, cutoff=cutoff)
    with pytest.raises(ValueError, match="omega >= 0"):
        spectral_density(ContinuumBath(1.0, 1.0), np.array([-0.1, 0.5]))


@pytest.mark.parametrize(
    "s, a, tol",
    [
        (1.0, 1.0, 1e-12),
        (2.0, 1.0, 1e-12),
        (1.0, 2.0, 1e-12),
        # non-integer exponents leave a branch point at omega = 0 that the
        # frequency rule only resolves algebraically; accuracy is documented
        (0.5, 1.0, 5e-4),
        (1.5, 1.0, 1e-5),
    ],
)
def test_spectral_density_total_weight(s, a, tol):
    # int_0^inf J(w) dw = Gamma(s+1) * cutoff**(a+1)
    cutoff = 3.0
    bath = ContinuumBath(s=s, cutoff=cutoff, dim_exponent=a)
    rule = quad_thermal_frequency(128, cutoff, beta=0.1)
    got = rule.integrate(spectral_density(bath, rule.nodes))
    exact = math.gamma(s + 1.0) * cutoff ** (a + 1.0)
    assert abs(got - exact) < tol * exact


def test_bath_fluctuation_grows_with_cutoff():
    # <B^2> = Phi_B(0) must increase monotonically with the cutoff
    vals = [
        ContinuumBathCorrelation(ContinuumBath(1.0, om), beta=1.0).value(0.0)
        for om in (5.0, 20.0, 100.0, 400.0)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# closed-form correlators vs explicit level sums
# ---------------------------------------------------------------------------


def qubit_closed_form(epsilon: float, theta: float, beta: float, u: np.ndarray):
    """(C, dC/dbeta, d2C/dbeta2) of the qubit probe's coupling, written out.

    With c = beta epsilon / 2 and a = epsilon u - c, the correlator of
    S = cos(theta) sigma_z - sin(theta) sigma_x under H = (epsilon/2) sigma_z
    is cos^2 + sin^2 cosh(a)/cosh(c); each beta-derivative at fixed u brings
    down -(epsilon/2) (d/da + tanh(c))."""
    c = 0.5 * beta * epsilon
    a = epsilon * u - c
    sin2, th = math.sin(theta) ** 2, math.tanh(c)
    r_sinh, r_cosh = np.sinh(a) / math.cosh(c), np.cosh(a) / math.cosh(c)
    value = math.cos(theta) ** 2 + sin2 * r_cosh
    dbeta = -0.5 * epsilon * sin2 * (r_sinh + th * r_cosh)
    d2beta = 0.5 * epsilon**2 * sin2 * th * (r_sinh + th * r_cosh)
    return value, dbeta, d2beta


def test_qubit_correlator_closed_vs_eigenbasis():
    beta = 1.7
    sums = probe_correlation(probe_qubit(1.3, 0.8), beta)
    u = np.linspace(0.0, beta, 13)
    closed = qubit_closed_form(1.3, 0.8, beta, u)
    for attr, a in zip(("value", "dbeta", "d2beta"), closed):
        b = getattr(sums, attr)(u)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b))), attr


def test_oscillator_correlator_closed_vs_eigenbasis():
    beta = 2.0
    probe = probe_oscillator(1.0, beta_design=beta)
    closed = OscillatorCorrelation(1.0, beta)
    sums = probe_correlation(probe, beta)
    u = np.linspace(0.0, beta, 9)
    for attr in ("value", "dbeta", "d2beta"):
        a = getattr(closed, attr)(u)
        b = getattr(sums, attr)(u)
        assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(b))), attr


def test_oscillator_mean_square_displacement():
    # Phi(0) = <x^2> = coth(beta omega0 / 2) / (2 omega0)
    corr = OscillatorCorrelation(1.0, 1.0)
    assert corr.value(0.0) == pytest.approx(1.0819767068693265, rel=1e-14)


def test_truncated_mode_approaches_closed_boson_correlator():
    omega_b = 1.3
    for beta, tol in ((0.5, 5e-9), (2.0, 1e-12)):
        mode = bath_mode(omega_b, n_levels=40)
        sums = bath_correlation(mode, beta)
        closed = OscillatorCorrelation(omega_b, beta)
        u = np.linspace(0.0, beta, 7)
        rel = np.max(np.abs(sums.value(u) - closed.value(u))) / np.max(closed.value(u))
        assert rel < tol, (beta, rel)


def test_every_correlator_refuses_nonpositive_beta():
    probe = probe_qubit(1.0, 0.7)
    builders = (
        lambda b: OscillatorCorrelation(1.0, b),
        lambda b: EigenbasisCorrelation(probe.decomp, probe.coupling, b),
        lambda b: ContinuumBathCorrelation(ContinuumBath(1.0, 10.0), b),
    )
    for build in builders:
        for beta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta must be positive"):
                build(beta)


def test_oscillator_correlator_refuses_nonpositive_frequency():
    # omega0 = 0 would divide by zero; a negative one flips the sign of the kernel
    for omega0 in (0.0, -1.0, np.inf, np.array([[1.0], [0.0]]), np.array([[1.0], [np.inf]])):
        with pytest.raises(ValueError, match="oscillator frequency must be positive"):
            OscillatorCorrelation(omega0, 1.0)


@pytest.mark.parametrize("nested", [[[0.7], [1.3], [4.0]], ((0.7,), (1.3,), (4.0,))],
                         ids=["list", "tuple"])
def test_oscillator_correlator_takes_a_nested_sequence_as_its_array(nested):
    # value() and the derivatives multiply by omega0, which a list cannot be
    beta, u = 1.7, np.linspace(0.0, 1.7, 5)
    seq, arr = OscillatorCorrelation(nested, beta), OscillatorCorrelation(np.array(nested), beta)
    assert seq.omega0.dtype == np.float64
    for attr in ("value", "dbeta", "d2beta"):
        assert np.array_equal(getattr(seq, attr)(u), getattr(arr, attr)(u)), attr


def test_correlators_satisfy_detailed_balance_symmetry():
    # Phi(u) = Phi(beta - u) for every thermal autocorrelation we build
    beta = 1.7
    fns = [
        probe_correlation(probe_qubit(1.0, 0.9), beta),
        OscillatorCorrelation(1.2, beta),
        probe_correlation(probe_qubit(1.0, 2.0), beta),
        bath_correlation(bath_qubit(0.7), beta),
        bath_correlation(bath_mode(1.0, 25), beta),
        bath_correlation(ContinuumBath(1.0, 50.0), beta),
    ]
    u = np.linspace(0.0, beta, 11)
    for fn in fns:
        drift = np.max(np.abs(fn.value(u) - fn.value(beta - u)))
        assert drift < 1e-10 * max(1.0, np.max(np.abs(fn.value(u)))), type(fn).__name__


def test_correlator_beta_derivatives_match_finite_differences():
    h = 1e-5
    u = np.linspace(0.0, 0.9, 7)  # stay inside [0, beta-h]

    def fd(make, beta):
        return (make(beta + h).value(u) - make(beta - h).value(u)) / (2.0 * h)

    cases = [
        # the level-sum probe correlator that F2 reads, on a qubit and an oscillator
        (lambda b: probe_correlation(probe_qubit(1.3, 0.8), b), 1.1),
        (lambda b: probe_correlation(probe_oscillator(0.9, n_trunc=40), b), 1.1),
        (lambda b: OscillatorCorrelation(0.9, b), 1.1),
        (lambda b: bath_correlation(bath_qubit(0.8), b), 1.1),
        # continuum baths on both frequency rules: beta*cutoff = 110 is cold, 3.3 warm
        (lambda b: bath_correlation(ContinuumBath(1.0, 100.0), b), 1.1),
        (lambda b: bath_correlation(ContinuumBath(1.5, 3.0, dim_exponent=2.0), b), 1.1),
    ]
    for make, beta in cases:
        got = make(beta).dbeta(u)
        ref = fd(make, beta)
        assert np.max(np.abs(got - ref)) < 1e-5 * max(1.0, np.max(np.abs(ref)))

    # second derivative, same scheme applied to dbeta
    for make, beta in cases[:3]:
        got = make(beta).d2beta(u)
        ref = (make(beta + h).dbeta(u) - make(beta - h).dbeta(u)) / (2.0 * h)
        assert np.max(np.abs(got - ref)) < 1e-5 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("beta", [0.1, 2.0, 25.0])  # 25 takes the cold frequency rule
def test_value_and_dbeta_matches_the_separate_evaluations(beta):
    # the continuum dbeta is the fused method's second value; its finite-difference
    # check is in test_correlator_beta_derivatives_match_finite_differences
    u = np.concatenate([[0.0], np.linspace(0.0, beta, 13)[1:-1], [beta]])
    for corr in (
        bath_correlation(ContinuumBath(1.0, 100.0), beta),
        bath_correlation(ContinuumBath(1.5, 3.0, dim_exponent=2.0), beta),
        bath_correlation(bath_qubit(0.8), beta),  # the CorrelationFn default
        probe_correlation(probe_qubit(1.3, 0.8), beta),
    ):
        # one formula per correlator: the pair and the separate values are the same bytes
        val, dval = corr.value_and_dbeta(u)
        for got, ref in ((val, corr.value(u)), (dval, corr.dbeta(u))):
            assert np.array_equal(got, ref), type(corr).__name__
        val0, dval0 = corr.value_and_dbeta(0.3 * beta)
        assert isinstance(val0, float) and isinstance(dval0, float)
        assert val0 == corr.value(0.3 * beta)
        assert dval0 == corr.dbeta(0.3 * beta)


def test_continuum_correlator_refuses_second_derivative():
    corr = bath_correlation(ContinuumBath(1.0, 30.0), 1.0)
    with pytest.raises(NotImplementedError):
        corr.d2beta(0.3)


@pytest.mark.parametrize("u", [-0.5, 2.0, -1e-300, math.nan, math.inf, -math.inf])
def test_closed_form_correlators_refuse_u_outside_zero_to_beta(u):
    # unchecked, a continuum value(-0.5) was inf and its dbeta NaN,
    # value(nan) was NaN, and a unit mode's value(-0.5) a finite, wrong 1.48
    continuum = bath_correlation(ContinuumBath(1.0, 100.0), 1.0)
    oscillator = OscillatorCorrelation(1.2, 1.0)
    methods = (continuum.value, continuum.dbeta, continuum.value_and_dbeta,
               oscillator.value, oscillator.dbeta, oscillator.d2beta)
    named = re.escape(f"u = {u!r}") + r".*" + re.escape("beta = 1.0")
    for method in methods:
        for arg in (u, np.array([0.3, u]), np.array([[u], [0.3]])):
            with pytest.raises(ValueError, match=named):
                method(arg)
    # both ends of [0, beta] are inside
    for method in methods:
        for got in np.atleast_1d(method(np.array([0.0, 1.0]))):
            assert np.all(np.isfinite(got))


def _mpmath_bath_sums(corr: ContinuumBathCorrelation, u: np.ndarray, mp) -> tuple:
    """C_B(u) and dC_B/dbeta(u) as the library's discrete frequency sum, at
    its own float nodes and weights taken as exact, summed with 30 digits
    at the exact beta - u."""
    bath, beta = corr.bath, mp.mpf(corr.beta)
    scale = mp.mpf(bath.cutoff) ** (mp.mpf(bath.dim_exponent) - mp.mpf(bath.s))
    terms = []
    for w, weight in zip(corr.rule.nodes, corr.rule.weights):
        w = mp.mpf(w)
        jw = scale * w ** mp.mpf(bath.s) * mp.exp(-w / mp.mpf(bath.cutoff)) * mp.mpf(weight) / mp.pi
        em = mp.exp(-beta * w)
        terms.append((w, jw / (1 - em), jw * w / (1 - em) ** 2, em))
    val, dval = [], []
    for x in u:
        x = mp.mpf(x)
        val.append(mp.fsum(v * (mp.exp(-x * w) + mp.exp(-(beta - x) * w)) for w, v, _, _ in terms))
        dval.append(-mp.fsum(d * (mp.exp(-(beta - x) * w) + mp.exp(-x * w) * em)
                             for w, _, d, em in terms))
    return np.array(val, dtype=float), np.array(dval, dtype=float)


@pytest.mark.parametrize("beta_cutoff", [3.0, 25.0, 40.0, 500.0])  # THERMAL_SPLIT is 30
def test_mirrored_rule_terms_match_a_30_digit_frequency_sum(cold_caches, beta_cutoff):
    # the reference sums the same discrete frequency rule, so only rounding
    # is compared: the float sums, exponentials, and node n-1-j read for
    # beta - u_j.  The bound, 1e-12 of each value, was fixed before the run;
    # the mirror's part grows as eps * beta * cutoff
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 30
    cutoff = 100.0
    beta = beta_cutoff / cutoff
    corr = ContinuumBathCorrelation(ContinuumBath(1.0, cutoff, 2.0), beta)
    rule = quad_imaginary_time(32, beta, corr.layer_width)
    phi, dphi = corr._on_rule(rule)
    ref_phi, ref_dphi = _mpmath_bath_sums(corr, rule.nodes, mp)
    for got, ref in ((phi, ref_phi), (dphi, ref_dphi)):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_rule_terms_refuse_a_rule_that_is_not_its_own_mirror(cold_caches):
    beta = 2.0
    corr = bath_correlation(ContinuumBath(1.0, 100.0), beta)
    rule = quad_imaginary_time(64, beta, corr.layer_width)
    kept = corr.rule_terms(rule)
    moved = rule.nodes.copy()
    moved[3] += 8 * np.spacing(beta)
    lopsided = (
        models.QuadratureRule(moved, rule.weights, "moved"),
        quad_imaginary_time(64, 0.9 * beta, corr.layer_width),  # another beta
        models.QuadratureRule(rule.nodes - 0.1, rule.weights, "shifted"),
        models.QuadratureRule(np.array([-0.5, 2.5]), np.array([1.0, 1.0]), "outside"),
    )
    for bad in lopsided:
        with pytest.raises(ValueError, match="mirror-symmetric"):
            corr.rule_terms(bad)
        assert corr._terms is kept  # a refused rule replaces no terms
    # a node one ulp of beta off is within the bound
    moved[3] = rule.nodes[3] + np.spacing(beta)
    corr.rule_terms(models.QuadratureRule(moved, rule.weights, "ulp"))


def test_continuum_correlator_layer_width():
    corr = bath_correlation(ContinuumBath(1.0, 80.0), 2.0)
    assert corr.layer_width == pytest.approx(1.0 / 80.0)
    assert corr.mean == 0.0


# ---------------------------------------------------------------------------
# coupling means
# ---------------------------------------------------------------------------


def test_mean_coupling_closed_forms():
    beta = 0.9
    assert bath_correlation(ContinuumBath(1.0, 10.0), beta).mean == 0.0
    assert abs(bath_correlation(bath_qubit(1.0), beta).mean) < 1e-15
    proj = DiscreteBath(SZ, PROJ_UP)
    expected = 0.5 * (1.0 - math.tanh(beta))
    assert bath_correlation(proj, beta).mean == pytest.approx(expected, rel=1e-12)


def test_x_matrix_flags_offset_couplings():
    # x_matrix is the one judge of the zero-mean assumption
    beta, probe = 1.0, probe_qubit(1.0, 0.7)
    x_matrix(probe, ContinuumBath(1.0, 10.0), beta)
    x_matrix(probe, bath_qubit(1.0), beta)
    with pytest.raises(NonzeroMeanError, match="p1_operator"):
        x_matrix(probe, DiscreteBath(SZ, PROJ_UP), beta)


# ---------------------------------------------------------------------------
# probe factories
# ---------------------------------------------------------------------------


def test_probe_qubit_validation_and_operators():
    with pytest.raises(ValueError):
        probe_qubit(0.0)
    p = probe_qubit(2.0, np.pi / 2.0)
    assert np.allclose(p.hamiltonian, np.diag([1.0, -1.0]))
    # theta = pi/2 coupling is pure sigma_x (up to rounding of cos)
    assert abs(p.coupling[0, 0]) < 1e-15
    assert p.coupling[0, 1] == pytest.approx(-1.0)
    assert p.dim_exponent == 0.0


def test_oscillator_levels_meet_tail_target():
    omega0, beta, tail = 1.0, 2.0, 1e-8
    n = oscillator_levels(omega0, beta, tail)
    assert n >= 40
    top = math.exp(-beta * omega0 * (n - 1)) * (1.0 - math.exp(-beta * omega0))
    assert top <= tail


def test_probe_oscillator_refuses_a_non_integral_n_trunc():
    # int() alone would build 40 levels from 40.7 without a word
    with pytest.raises(ValueError, match="n_trunc"):
        probe_oscillator(1.0, n_trunc=40.7)


@pytest.mark.parametrize("n_trunc", [np.inf, np.nan])
def test_probe_oscillator_refuses_a_non_finite_n_trunc(n_trunc):
    # int() alone raises OverflowError on inf, and on NaN a message that
    # names no argument
    with pytest.raises(ValueError, match="n_trunc"):
        probe_oscillator(1.0, n_trunc=n_trunc)


@pytest.mark.parametrize("n_levels", [0, -3])
def test_bath_mode_refuses_fewer_than_one_level(n_levels):
    # zero levels would fail only later, in a reduction over an empty spectrum
    with pytest.raises(ValueError, match="n_levels"):
        bath_mode(1.0, n_levels)


@pytest.mark.parametrize("n_levels", [2.5, np.inf, np.nan])
def test_bath_mode_refuses_a_non_integral_level_count(n_levels):
    with pytest.raises(ValueError, match="n_levels"):
        bath_mode(1.0, n_levels)


def test_level_counts_accept_integral_floats_and_numpy_integers():
    ref_probe, ref_mode = probe_oscillator(1.0, n_trunc=12), bath_mode(0.8, 6)
    for n in (12.0, np.int64(12), np.float64(12.0)):
        probe = probe_oscillator(1.0, n_trunc=n)
        assert probe.dim == 12 and type(probe.params["n_trunc"]) is int
        assert np.array_equal(probe.hamiltonian, ref_probe.hamiltonian)
    for n in (6.0, np.int32(6)):
        mode = bath_mode(0.8, n)
        assert np.array_equal(mode.hamiltonian, ref_mode.hamiltonian)
        assert np.array_equal(mode.coupling, ref_mode.coupling)


def test_probe_oscillator_truncation_guards():
    with pytest.raises(ValueError):
        probe_oscillator(1.0, n_trunc=1)
    # 5 levels at beta = 0.2 leaves >1e-3 of population on the top level
    with pytest.raises(ValueError, match="top"):
        probe_oscillator(1.0, n_trunc=5, beta_design=0.2)
    with pytest.warns(UserWarning):
        probe_oscillator(1.0, n_trunc=12, beta_design=1.2)
    p = probe_oscillator(1.0, beta_design=1.0)
    assert p.dim >= 40
    assert p.dim_exponent == -0.5
    # position operator: <n|x|n+1> = sqrt((n+1)/(2 omega0))
    assert p.coupling[0, 1] == pytest.approx(math.sqrt(0.5))


def test_discrete_bath_shape_validation():
    with pytest.raises(ValueError, match="equal shapes"):
        DiscreteBath(SZ, np.eye(3, dtype=complex))


def test_probe_custom_shape_validation():
    with pytest.raises(ValueError, match="equal shapes"):
        probe_custom(SZ, np.eye(3))


# ---------------------------------------------------------------------------
# one continuum-bath correlator per (bath, beta, n_omega)
# ---------------------------------------------------------------------------


def test_equal_continuum_keys_share_one_correlator(cold_caches):
    corr = bath_correlation(ContinuumBath(1.0, 100.0), 2.0, 128)
    # a bath built afresh with equal fields, and an integer beta, give the same key
    assert bath_correlation(ContinuumBath(1.0, 100.0), 2, 128) is corr
    others = [
        bath_correlation(ContinuumBath(1.0, 100.0), 2.5, 128),
        bath_correlation(ContinuumBath(1.0, 100.0), 2.0, 64),
        bath_correlation(ContinuumBath(1.0, 50.0), 2.0, 128),
        bath_correlation(ContinuumBath(1.0, 100.0, dim_exponent=2.0), 2.0, 128),
    ]
    assert all(other is not corr for other in others)


def test_one_discrete_bath_shares_one_correlator_per_beta(cold_caches):
    bath = bath_qubit(0.8)
    corr = bath_correlation(bath, 2.0)
    # the same bath object at an equal beta, integer or float, is one key
    assert bath_correlation(bath, 2) is corr
    # another beta, or an equal bath built afresh (a bath equals only
    # itself), gets its own correlator
    assert bath_correlation(bath, 2.5) is not corr
    twin = bath_qubit(0.8)
    assert twin != bath
    assert bath_correlation(twin, 2.0) is not corr
    for array in (corr.evals, corr.coupling_eig, corr.abs_sq, corr.populations,
                  corr.dpopulations):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_discrete_bath_is_immutable_and_read_only():
    h = np.array([[0.5, 0.1j], [-0.1j, -0.5]])  # complex: kept as a copy
    bath = DiscreteBath(h, SIGMA_X)
    assert h.flags.writeable
    for array in (bath.hamiltonian, bath.coupling, bath.decomp.evals, bath.decomp.evecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        bath.hamiltonian = h
    assert bath.decomp is bath.decomp


def test_a_refused_beta_leaves_no_cached_correlator(cold_caches):
    for beta in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="beta"):
            bath_correlation(ContinuumBath(1.0, 100.0), beta)
    assert models._continuum_correlation.cache_info().currsize == 0


def _term_arrays(terms) -> list:
    return [terms.tail_phi, terms.f2_dphi, *terms.expansion]


@pytest.mark.parametrize("beta", [1.0, 25.0])  # 25 takes the cold frequency rule
def test_cached_correlator_hands_out_read_only_arrays(cold_caches, beta):
    corr = bath_correlation(ContinuumBath(1.0, 100.0), beta)
    u = np.linspace(0.0, beta, 9)
    exposed = [corr.rule.nodes, corr.rule.weights, corr._w, corr._em, corr._weights,
               *corr.value_and_dbeta(u), corr.value(u), corr.dbeta(u)]
    # what rows at one beta share: the bath correlators' rule terms and the
    # probe levels' Gibbs record with its pair factors
    rule = quad_imaginary_time(64, beta, corr.layer_width)
    discrete = bath_correlation(bath_qubit(0.8), beta)
    exposed += _term_arrays(corr.rule_terms(rule))
    exposed += _term_arrays(discrete.rule_terms(quad_imaginary_time(64, beta)))
    probe = probe_correlation(probe_oscillator(1.0, 12), beta)
    thermal = probe.thermal
    exposed += [probe.populations, probe.dpopulations, thermal.d2populations,
                *thermal.pair_factors(2), *thermal.pair_factors(12)]
    for array in exposed:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def _holds_no_subnormal(*arrays) -> bool:
    return all(np.all((a == 0.0) | (np.abs(a) >= np.finfo(float).tiny)) for a in arrays)


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("cutoff", [5.0, 100.0, 1000.0])
def test_continuum_tables_match_the_plain_exponential_reference(cold_caches, s, cutoff):
    # exponents below -700 give an exact 0 in place of np.exp's near- or
    # sub-normal value; every sum they join keeps its bits, on both frequency
    # rules (beta * cutoff on both sides of THERMAL_SPLIT), at u = 0 and on
    # a rule's nodes read forwards and backwards
    cut = 0
    for beta in np.geomspace(0.01, 60.0, 13):
        corr = ContinuumBathCorrelation(ContinuumBath(s, cutoff, 2.0), beta)
        gone = -beta * corr.rule.nodes < -700.0
        assert np.all(corr._em[gone] == 0.0) and np.all(corr._em[~gone] > 0.0)
        cut += int(np.count_nonzero(gone))
        for n_u in (32, 64, 128):
            rule = quad_imaginary_time(n_u, beta, corr.layer_width)
            u = rule.nodes
            got, ref = corr.value_and_dbeta(u), continuum_bath_tables(corr, u)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (beta, n_u)
            g = continuum_bath_rows(corr, u)
            on_rule = corr._on_rule(rule)
            mirrored = (g[:, 0] + g[::-1, 0], -(g[:, 1] + g[::-1, 2]))
            assert all(np.array_equal(a, b) for a, b in zip(on_rule, mirrored)), (beta, n_u)
            assert _holds_no_subnormal(*got, *on_rule)
        assert corr.value_and_dbeta(0.0) == continuum_bath_tables(corr, 0.0), beta
        assert _holds_no_subnormal(corr._em, corr._weights, np.array(corr.value_and_dbeta(0.0)))
    assert cut  # the grid reaches the cut


def test_no_exponent_below_minus_700_reaches_np_exp(cold_caches, monkeypatch):
    # numpy's vector exp takes a slow path below about -707 (README
    # "Numerical design notes"); at beta = 20 a quarter of the bath tables'
    # exponents lie there
    seen, exp = [], np.exp

    def spy(x, *args, **kwargs):
        seen.append(float(np.min(x)))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(models.np, "exp", spy)
    beta = 20.0
    corr = ContinuumBathCorrelation(ContinuumBath(1.0, 100.0), beta)
    u = quad_imaginary_time(64, beta, corr.layer_width).nodes
    corr.value_and_dbeta(u)
    modes = OscillatorCorrelation(corr.rule.nodes[:, None], beta)
    for attr in ("value", "dbeta", "d2beta"):
        getattr(modes, attr)(u)
    assert np.count_nonzero(np.multiply.outer(u, corr.rule.nodes) > 700.0)
    assert seen and min(seen) >= -700.0


def test_snr_bound_is_bit_identical_with_cold_and_warm_caches(cold_caches):
    bath = ContinuumBath(1.0, 100.0)
    probes = [probe_qubit(1.0, 0.7), probe_qubit(1.0, 2.1), probe_oscillator(1.0, 12)]

    def reports() -> str:
        # repr round-trips every float exactly, so equal strings are equal bits
        return repr([snr_bound(p, bath, 0.1, beta) for beta in (0.3, 4.0) for p in probes])

    cold = reports()
    hits = models._continuum_correlation.cache_info().hits
    warm = reports()
    assert models._continuum_correlation.cache_info().hits > hits
    cold_caches()  # the fixture's value empties every cache again
    assert reports() == warm == cold


_BETAS, _THETAS = (0.5, 3.0), (0.3, 1.1, 1.9, 2.7)


def _sweep_point(beta: float, theta: float):
    # a fresh bath per point, as the benchmark's per-point call builds it
    return snr_bound(probe_qubit(1.0, theta), ContinuumBath(1.0, 100.0), 0.1, beta)


def _count_kernel_calls(monkeypatch) -> dict:
    """Calls of the two level-sum kernels from here to the test's end, by name."""
    calls = {"gap_integrals": 0, "sigma_nodes": 0}
    for name in calls:
        original = getattr(_kernels, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(_kernels, name, counting)
    return calls


def test_theta_sweep_builds_one_correlator_per_beta(cold_caches, monkeypatch):
    built, evaluated, terms = [], [], []
    init, table = ContinuumBathCorrelation.__init__, ContinuumBathCorrelation._table

    def counting_init(self, bath, beta, *args):
        built.append(beta)
        init(self, bath, beta, *args)

    def counting_table(self, s):
        evaluated.append(self.beta)
        return table(self, s)

    class CountingTerms(models._NodeTerms):
        def __init__(self, rule, corr):
            terms.append(corr.beta)
            super().__init__(rule, corr)

    monkeypatch.setattr(ContinuumBathCorrelation, "__init__", counting_init)
    monkeypatch.setattr(ContinuumBathCorrelation, "_table", counting_table)
    monkeypatch.setattr(models, "_NodeTerms", CountingTerms)
    calls = _count_kernel_calls(monkeypatch)
    for beta in _BETAS:  # beta-major, as `sweep` orders its grid
        for theta in _THETAS:
            _sweep_point(beta, theta)
    assert built == terms == list(_BETAS)
    # per beta, two exponential tables: the constructor's at u = 0, and one
    # on the imaginary-time nodes, from which the one set of rule terms reads
    # both u and beta - u
    assert evaluated == [beta for beta in _BETAS for _ in range(2)]
    # one record of the probe levels' Gibbs data per beta
    assert models._thermal_levels.cache_info().misses == len(_BETAS)
    # yet every point still evaluates its 4 + 4 level sums, on tables built
    # once per beta: one gap pair on the u-rule, and a sigma pair on it, plus
    # the sigma pair at u = 0, which both beta share
    points = len(_BETAS) * len(_THETAS)
    assert calls == {"gap_integrals": 4 * points, "sigma_nodes": 4 * points}
    assert _kernels._gap_tables.cache_info().misses == len(_BETAS)
    assert _kernels._sigma_tables.cache_info().misses == len(_BETAS) + 1


def test_theta_sweep_rows_do_not_depend_on_their_neighbours(cold_caches):
    # rows at one beta share the probe levels' record and the bath's rule
    # terms: each report has the forward sweep's bytes (repr round-trips every
    # float) with theta reversed and when every point runs on empty caches
    def sweep(thetas, before=lambda: None) -> dict:
        out = {}
        for beta in _BETAS:
            for theta in thetas:
                before()
                out[beta, theta] = repr(_sweep_point(beta, theta))
        return out

    forward = sweep(_THETAS)
    cold_caches()
    assert sweep(_THETAS[::-1]) == forward
    assert sweep(_THETAS, before=cold_caches) == forward


# ---------------------------------------------------------------------------
# one built-in probe spectrum per Hamiltonian
# ---------------------------------------------------------------------------


def test_equal_probe_parameters_share_levels(cold_caches):
    qubit = probe_qubit(1.0, 0.3)
    twin = probe_qubit(1, 2.1)  # H does not depend on theta; an int epsilon hits
    assert twin.decomp is qubit.decomp and twin.hamiltonian is qubit.hamiltonian
    assert twin.params is not qubit.params and twin.params == {"epsilon": 1, "theta": 2.1}
    assert twin.coupling is not qubit.coupling
    assert probe_qubit(2.0, 0.3).decomp is not qubit.decomp
    osc = probe_oscillator(1.0, 40)
    auto = probe_oscillator(1, beta_design=1.0)  # auto truncation at 40 levels
    assert auto.dim == 40 and auto.decomp is osc.decomp and auto.coupling is osc.coupling
    assert auto.params is not osc.params
    for other in (probe_oscillator(1.5, 40), probe_oscillator(1.0, 41)):
        assert other.decomp is not osc.decomp and other.coupling is not osc.coupling
    assert models._qubit_spectrum.cache_info().currsize == 2
    assert models._oscillator_spectrum.cache_info().currsize == 3


def test_shared_probe_arrays_are_read_only(cold_caches):
    qubit, osc = probe_qubit(1.0, 0.3), probe_oscillator(1.0, 12)
    shared = [qubit.hamiltonian, qubit.decomp.evals, qubit.decomp.evecs, qubit.decomp._order,
              osc.hamiltonian, osc.coupling, osc.decomp.evals, osc.decomp.evecs,
              osc.decomp._order]
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = 0.0
    qubit.coupling[0, 0] = 0.5  # the qubit coupling depends on theta: the probe's own
    assert probe_qubit(1.0, 0.3).coupling[0, 0] == pytest.approx(math.cos(0.3))


# ---------------------------------------------------------------------------
# non-finite model parameters are refused before anything is cached
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("epsilon, theta", [(math.nan, 0.3), (math.inf, 0.3),
                                            (1.0, math.nan), (1.0, math.inf)])
def test_probe_qubit_refuses_non_finite_parameters(cold_caches, epsilon, theta):
    with pytest.raises(ValueError, match="finite"):
        probe_qubit(epsilon, theta)
    assert models._qubit_spectrum.cache_info().currsize == 0


@pytest.mark.parametrize("s, cutoff, dim_exponent", [
    (math.inf, 5.0, 1.0), (1.0, math.inf, 1.0), (1.0, 5.0, math.nan), (1.0, 5.0, -math.inf)])
def test_continuum_bath_refuses_non_finite_fields(s, cutoff, dim_exponent):
    with pytest.raises(ValueError, match="finite"):
        ContinuumBath(s, cutoff, dim_exponent)


@pytest.mark.parametrize("build", [
    lambda: probe_oscillator(math.nan, beta_design=1.0),
    lambda: probe_oscillator(math.inf),
    lambda: probe_oscillator(1.0, beta_design=math.nan),
    lambda: probe_oscillator(1.0, 12, beta_design=math.inf),
    lambda: oscillator_levels(1.0, math.nan),
    lambda: oscillator_levels(math.nan, 1.0),
], ids=["omega0-nan", "omega0-inf", "beta-nan", "beta-inf", "levels-beta-nan",
        "levels-omega0-nan"])
def test_oscillator_builders_refuse_non_finite_scales(cold_caches, build):
    with pytest.raises(ValueError, match="positive and finite"):
        build()
    assert models._oscillator_spectrum.cache_info().currsize == 0
