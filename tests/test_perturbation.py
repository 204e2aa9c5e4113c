"""Second-order state correction, first-order offset term, expanded SLD."""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from fctherm import (
    ContinuumBath,
    CouplingTooStrongError,
    DiscreteBath,
    JointModel,
    SpectralDecomposition,
    bath_correlation,
    bath_mode,
    bath_qubit,
    cfi_energy_perturbative,
    exact_fishers,
    exact_mfg,
    gibbs_state,
    mfg_second_order,
    p1_operator,
    probe_correlation,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    qfi_perturbative_integral,
    qfi_perturbative_sum,
    quad_thermal_frequency,
    sld_second_order,
    snr_bound,
    x_matrix,
    xi_via_spectral_kernel,
)
from fctherm import _kernels
from fctherm.models import MIDPOINT_BETA_GAP
from references import bare_sld, x_matrix_fd_dbeta

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
    scale = max(1.0, float(np.max(np.abs(exp.pi_x))))
    assert abs(np.real(np.trace(exp.pi_x))) < 1e-12 * scale


# every route to F2 (and to X) builds its bath correlator from a specification,
# so n_omega always applies; a ready-made correlator is not a specification
BATH_ROUTES = {
    "x_matrix": lambda p, b: x_matrix(p, b, 1.0),
    "x_matrix_fd_dbeta": lambda p, b: x_matrix_fd_dbeta(p, b, 1.0),
    "mfg_second_order": lambda p, b: mfg_second_order(p, b, 0.1, 1.0),
    "qfi_perturbative_integral": lambda p, b: qfi_perturbative_integral(p, b, 1.0),
    "qfi_perturbative_sum": lambda p, b: qfi_perturbative_sum(p, b, 1.0),
    "snr_bound": lambda p, b: snr_bound(p, b, 0.1, 1.0),
    "xi_via_spectral_kernel": lambda p, b: xi_via_spectral_kernel(p, b, 1.0),
}


@pytest.mark.parametrize("route", sorted(BATH_ROUTES))
def test_routes_refuse_anything_but_a_bath_specification(route):
    probe, bath = MODEL_PAIRS[1]
    not_specifications = (
        bath_correlation(bath, 1.0),
        bath_correlation(bath_qubit(1.0), 1.0),
        object(),
    )
    for wrong in not_specifications:
        with pytest.raises(TypeError):
            BATH_ROUTES[route](probe, wrong)


def test_expansion_carries_the_bath_correlator_it_built():
    probe, bath, beta = probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 1.3
    exp = x_matrix(probe, bath, beta, n_omega=48)
    assert exp.bath_corr.beta == exp.beta == beta
    rule = quad_thermal_frequency(48, bath.cutoff, beta)
    assert np.array_equal(exp.bath_corr.rule.nodes, rule.nodes)
    discrete = x_matrix(probe, bath_qubit(1.0), beta).bath_corr
    assert discrete.beta == beta and abs(discrete.mean) < 1e-15


def test_frequency_rule_size_reaches_x_and_f2():
    # n_omega once did nothing when the bath came as a ready-made correlator
    probe, bath, beta = probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 1.0
    x_coarse = x_matrix(probe, bath, beta, n_omega=32).pi_x
    x_fine = x_matrix(probe, bath, beta, n_omega=256).pi_x
    assert 1e-7 < np.max(np.abs(x_fine - x_coarse)) < 1e-5
    f2_coarse = snr_bound(probe, bath, 0.1, beta, n_omega=32).f2
    f2_fine = snr_bound(probe, bath, 0.1, beta, n_omega=256).f2
    assert 1e-7 < abs(f2_fine - f2_coarse) < 1e-5


def test_x_matrix_refuses_nonzero_mean_coupling():
    probe = probe_qubit(1.0, np.pi / 2.0)
    proj_bath = DiscreteBath(SZ, PROJ_UP)
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

    def pi_x_original(delta: float) -> np.ndarray:
        h = np.diag([0.5, 0.5 + delta, -1.0]).astype(complex)
        probe = probe_custom(h, s)
        exp = x_matrix(probe, bath_qubit(1.0), 1.0)
        return probe.decomp.from_eigenbasis(exp.pi_x)

    base = pi_x_original(0.0)
    # inside the analytic-limit window: drift at rounding level
    assert np.max(np.abs(pi_x_original(1e-12) - base)) < 1e-12
    # across the branch boundary: only the genuine O(delta) change remains,
    # so the analytic limit agrees with the generic gap formula
    assert np.max(np.abs(pi_x_original(1e-6) - base)) < 1e-7


def per_pair_reference(exp):
    """Off-diagonal pi X and pi dX/dbeta on the expansion's own nodes, pair by
    pair.

    [e^{u(E_m-E_k)} e^{beta D} - e^{u(E_n-E_k)}] / D equals
    e^{u(E_n-E_k)} expm1((beta-u) D) / D with D = E_n - E_m: a divided
    difference formed node by node, so no two level sums cancel.  Its beta
    derivative at fixed u is e^{u(E_n-E_k)} e^{(beta-u) D}.  Row n is then
    weighted by its population p_n.
    """
    u, w = exp.rule.nodes, exp.rule.weights
    phi, dphi = exp.bath_corr.value_and_dbeta(u)
    e, s, beta = exp.evals, exp.probe_corr.coupling_eig, exp.beta
    x = np.zeros_like(exp.pi_x)
    dx = np.zeros_like(exp.pi_dx)
    for n in range(e.size):
        for m in range(e.size):
            if n == m:
                continue
            gap = e[n] - e[m]
            div = np.expm1((beta - u) * gap) / gap if gap != 0.0 else beta - u
            for k in range(e.size):
                lead = s[n, k] * s[k, m] * w * np.exp(u * (e[n] - e[k]))
                x[n, m] += np.sum(lead * phi * div)
                dx[n, m] += np.sum(lead * (dphi * div + phi * np.exp((beta - u) * gap)))
    p = exp.populations[:, None]
    return p * x, p * dx


def four_product_reference(exp):
    """pi X and pi dX/dbeta with each level-pair sum formed by its own product:
    a2 = (S o G^T) S and a2d beside a1 = S (S o G) and a1d, and both halves of
    each midpoint sum, on the expansion's own nodes, bath correlator and
    diagonal, weighted by the same one-sided table c[n, m] = p_n e^{beta gap}
    = p_m and its mirror, factored as c = lo * t.  x_matrix forms a2 and a2d
    as the adjoints of a1 and a1d."""
    u, w = exp.rule.nodes, exp.rule.weights
    phi, dphi = (np.asarray(c, dtype=float) for c in exp.bath_corr.value_and_dbeta(u))
    e, s, beta, p = exp.evals, exp.probe_corr.coupling_eig, exp.beta, exp.populations
    g_phi, g_phi_w, g_dphi, g_dphi_w = (
        _kernels.gap_integrals(e, u, c)
        for c in (w * phi, w * (beta - u) * phi, w * dphi, w * (beta - u) * dphi)
    )
    gap = e[:, None] - e[None, :]
    near = np.abs(beta * gap) < MIDPOINT_BETA_GAP
    safe_gap = np.where(near, 1.0, gap)
    lower = gap <= 0.0
    lo = np.where(lower, p[:, None], p[None, :])
    t = np.where(lower, np.exp(-beta * np.abs(gap)), 1.0)
    a1, a2 = s @ (s * g_phi), (s * g_phi.T) @ s
    a1d, a2d = s @ (s * g_dphi), (s * g_dphi.T) @ s
    x = lo * ((t * a1 - t.T * a2) / safe_gap)
    dx = lo * ((t * a1d - t.T * a2d) / safe_gap + t * a1)
    np.fill_diagonal(near, False)
    if near.any():
        root_pp = np.sqrt(np.multiply.outer(p, p))
        mid, mid_d = (0.5 * (s @ (s * g) + (s * g.T) @ s) for g in (g_phi_w, g_dphi_w))
        x = np.where(near, root_pp * mid, x)
        dx = np.where(near, root_pp * mid_d + lo * (t * a1), dx)
    np.fill_diagonal(x, np.diag(exp.pi_x))
    np.fill_diagonal(dx, np.diag(exp.pi_dx))
    return x, dx


BUILT_IN_PROBES = [probe_qubit(1.0, t) for t in (0.0, 0.7, 1.5 * np.pi, 2.5)] + [
    probe_oscillator(1.0, 12), probe_oscillator(1.0, 40), probe_oscillator(1.0, beta_design=0.1)
]


@pytest.mark.parametrize("probe", BUILT_IN_PROBES, ids=lambda p: f"{p.kind}-{p.dim}")
@pytest.mark.parametrize("bath", [ContinuumBath(1.0, 100.0), bath_mode(1.0, 10)],
                         ids=["ohmic", "mode"])
def test_adjoint_level_pair_sums_are_the_four_products_bit_for_bit(probe, bath):
    if probe.kind == "oscillator" and isinstance(bath, ContinuumBath):
        bath = ContinuumBath(1.0, 100.0, dim_exponent=2.0)
    for beta in (0.1, 0.5, 2.0):
        exp = x_matrix(probe, bath, beta)
        ref_x, ref_dx = four_product_reference(exp)
        assert exp.pi_x.tobytes() == ref_x.tobytes()
        assert exp.pi_dx.tobytes() == ref_dx.tobytes()


def _random_coupling_probe(d: int, seed: int, dtype):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((d, d))
    s = rng.standard_normal((d, d)).astype(dtype)
    if dtype is complex:
        s += 1j * rng.standard_normal((d, d))
    return probe_custom(h + h.T, s + s.conj().T)


@pytest.mark.parametrize(
    "probe, beta",
    [(_random_coupling_probe(6, seed, dtype), beta)
     for seed, dtype in ((1, float), (2, complex)) for beta in (0.5, 2.0)]
    + [(probe_qubit(1e-8, 0.7), 2.0), (probe_qubit(1e-8, 0.7), 0.5)],
    ids=["real-0.5", "real-2", "complex-0.5", "complex-2", "midpoint-2", "midpoint-0.5"],
)
def test_adjoint_level_pair_sums_match_the_four_products(probe, beta):
    # summation order in BLAS may differ between (S o G^T) S and
    # (S (S o G))^dag in the last bits; pi X and pi dX/dbeta agree to 1e-13 of
    # their size
    exp = x_matrix(probe, ContinuumBath(1.0, 5.0), beta)
    if probe.kind == "qubit":
        assert np.abs(beta * np.diff(exp.evals)) < MIDPOINT_BETA_GAP
    for got, ref in zip((exp.pi_x, exp.pi_dx), four_product_reference(exp)):
        assert got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


HERMITIAN_CASES = [
    pytest.param(probe, bath, id=f"{probe.kind}-{probe.dim}-{name}")
    for probe in BUILT_IN_PROBES
    for name, bath in (
        ("ohmic", ContinuumBath(1.0, 100.0, dim_exponent=2.0 if probe.kind == "oscillator" else 1.0)),
        ("mode", bath_mode(1.0, 10)),
    )
] + [
    pytest.param(_random_coupling_probe(6, 1, float), ContinuumBath(1.0, 5.0), id="dense-real"),
    pytest.param(_random_coupling_probe(6, 2, complex), ContinuumBath(1.0, 5.0), id="dense-complex"),
    pytest.param(probe_qubit(1e-8, 0.7), ContinuumBath(1.0, 5.0), id="midpoint-qubit"),
]


@pytest.mark.parametrize("probe, bath", HERMITIAN_CASES)
def test_state_correction_is_exactly_hermitian(probe, bath):
    # the symmetric lo and the mirrored t[n, m], t[m, n] weight the pair's two
    # level sums alike, and the midpoint entries take the symmetric
    # sqrt(p_n p_m), so pi X equals its adjoint exactly and the assembled state
    # needs no symmetrising (a zero entry may carry either sign, as +0/gap and
    # +0/(-gap) do).  The rotated coupling is exactly Hermitian too, as
    # a2 = a1^dag requires; a dense rotation alone rounds S_nk and S_kn apart.
    for beta in (0.1, 0.5, 2.0):
        exp = x_matrix(probe, bath, beta)
        if probe.kind == "qubit" and probe.params["epsilon"] < 1e-3:
            assert np.all(np.abs(beta * np.diff(exp.evals)) < MIDPOINT_BETA_GAP)
        s = exp.probe_corr.coupling_eig
        assert np.array_equal(s, s.conj().T), beta
        assert np.array_equal(exp.pi_x, exp.pi_x.conj().T), beta


RNG_COUPLINGS = np.random.default_rng(11)
REAL_S = RNG_COUPLINGS.standard_normal((3, 3))
COMPLEX_S = REAL_S + 1j * RNG_COUPLINGS.standard_normal((3, 3))
CLOSING_COUPLINGS = {"real": REAL_S + REAL_S.T, "complex": COMPLEX_S + COMPLEX_S.conj().T}


def closing_pair_probe(delta: float, coupling: str):
    return probe_custom(np.diag([0.0, 1.0, 1.0 + delta]), CLOSING_COUPLINGS[coupling])


def test_small_splitting_qubit_x01_is_linear_in_the_splitting():
    # X01 and alpha01 of a qubit vanish linearly with its splitting eps, where
    # the difference form cancels two O(1) sums that agree to O(beta eps).  The
    # line is anchored at eps = 1e-3 and 1e-4 and extrapolates to 0.652841 as
    # eps -> 0.  Below eps ~ 1e-10 the sum over the intermediate level cancels
    # too (S00 = -S11), which no per-pair form on these tables removes.
    bath = ContinuumBath(1.0, 5.0)
    x_1e3, x_1e4, alpha_0 = 0.652189, 0.652776, 0.5251205

    def line(eps: float) -> float:
        return x_1e4 + (x_1e3 - x_1e4) * (eps - 1e-4) / (1e-3 - 1e-4)

    for eps in np.logspace(-10, -5, 11):
        rep = snr_bound(probe_qubit(eps, np.pi / 4), bath, 0.1, 2.0, 64, 128)
        assert abs(rep.x01 / eps - line(eps)) <= 1e-5, (eps, rep.x01 / eps)
        assert abs(rep.alpha01 / eps - alpha_0) <= 1e-5, (eps, rep.alpha01 / eps)


@pytest.mark.parametrize("coupling", ["real", "complex"])
@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
def test_off_diagonals_match_a_per_pair_divided_difference(coupling, beta):
    # across the midpoint crossover in beta * delta and far from it
    for delta in np.logspace(-12, -2, 21):
        exp = x_matrix(closing_pair_probe(delta, coupling), ContinuumBath(1.0, 5.0), beta)
        ref_x, ref_dx = per_pair_reference(exp)
        off = ~np.eye(3, dtype=bool)
        for got, ref in ((exp.pi_x, ref_x), (exp.pi_dx, ref_dx)):
            rel = np.max(np.abs(got[off] - ref[off]) / np.abs(ref[off]))
            assert rel <= 5e-8, (delta, rel)


@pytest.mark.parametrize("coupling", ["real", "complex"])
@pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
def test_closing_pair_moves_x_by_its_slope_only(coupling, beta):
    # pi X and pi dX/dbeta are smooth functions of H, so as a pair closes
    # they move by at most their slope times the splitting; rounding may add
    # 1e-11 of their size.  Compared in the original basis: inside a tied
    # cluster the eigenvector order flips.
    bath = ContinuumBath(1.0, 5.0)

    def original(delta: float):
        probe = closing_pair_probe(delta, coupling)
        exp = x_matrix(probe, bath, beta)
        assert np.array_equal(exp.pi_x, exp.pi_x.conj().T), delta
        return np.array([probe.decomp.from_eigenbasis(exp.pi_x),
                         probe.decomp.from_eigenbasis(exp.pi_dx)])

    base = original(0.0)
    slope = np.max(np.abs(original(1e-4) - original(1e-5)), axis=(1, 2)) / 9e-5
    size = np.max(np.abs(base), axis=(1, 2))
    for delta in np.logspace(-14, -4, 41):
        moved = np.max(np.abs(original(delta) - base), axis=(1, 2))
        assert np.all(moved <= 2.0 * slope * delta + 1e-11 * size), (delta, moved / (slope * delta))


@pytest.mark.parametrize("probe, bath", MODEL_PAIRS)
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_analytic_dbeta_matches_finite_differences(probe, bath, beta):
    # the finite differences differentiate pi X, so they also see
    # d pi_n / d beta = -(E_n - <H>) p_n
    exp = x_matrix(probe, bath, beta)
    fd = x_matrix_fd_dbeta(probe, bath, beta)
    de = exp.evals - exp.probe_corr.mean_energy
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(exp.pi_dx - de[:, None] * exp.pi_x - fd)) < 1e-6 * scale


# ---------------------------------------------------------------------------
# assembled state
# ---------------------------------------------------------------------------


def test_mfg_at_zero_coupling_is_the_bare_state():
    probe, bath = MODEL_PAIRS[0]
    beta = 1.0
    exp = mfg_second_order(probe, bath, 0.0, beta)
    bare = gibbs_state(probe.decomp, beta)
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
    x, dx = exp.pi_x.copy(), exp.pi_dx.copy()
    weak, strong = exp.at_coupling(0.05), exp.at_coupling(0.1)
    assert np.array_equal(exp.pi_x, x) and np.array_equal(exp.pi_dx, dx)
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


@pytest.mark.parametrize("beta", [0.8, 5.0, 20.0, 200.0])
def test_p1_is_finite_on_a_cold_wide_probe(beta):
    # the two-sided weight p_n expm1(beta gap)/gap overflows on the 40-level
    # oscillator from beta = 20 on, and 0 * inf gave NaN entries; the one-sided
    # form agrees with it wherever it is finite, measured against the largest
    # entry (the two-sided form loses digits where p_n is subnormal)
    probe = probe_oscillator(1.0, n_trunc=40)
    p1 = p1_operator(probe, beta, 0.3)
    assert np.all(np.isfinite(p1))
    assert np.max(np.abs(p1 - p1.conj().T)) <= 1e-15 * np.max(np.abs(p1))
    corr = probe_correlation(probe, beta)
    gap = corr.evals[:, None] - corr.evals[None, :]
    s_bar = corr.coupling_eig - corr.mean * np.eye(probe.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        tau = np.where(gap == 0.0, beta, np.expm1(beta * gap) / np.where(gap == 0.0, 1.0, gap))
        two_sided = -0.3 * corr.populations[:, None] * s_bar * tau
    finite = np.isfinite(two_sided)
    assert finite.sum() > probe.dim
    assert np.max(np.abs(p1 - two_sided)[finite]) <= 1e-15 * np.max(np.abs(two_sided)[finite])


def test_p1_matches_exact_state_derivative():
    # qubit probe, projector-coupled bath qubit: the joint model is small
    # enough to differentiate the exact reduced state in gamma directly
    from fctherm import JointModel, exact_mfg
    from refinement import refine_linear

    probe = probe_qubit(1.0, np.pi / 2.0)
    bath = DiscreteBath(SZ, PROJ_UP)
    beta = 1.1
    mean_b = float(np.exp(-beta) / (2.0 * np.cosh(beta)))

    def reduced(g: float) -> np.ndarray:
        return exact_mfg(JointModel(probe, bath, g), beta).matrix

    got = probe.decomp.from_eigenbasis(p1_operator(probe, beta, mean_b))
    base = reduced(0.0)
    ref = np.empty_like(base, dtype=complex)
    for i in range(2):
        for j in range(2):
            ref[i, j] = refine_linear(lambda g, i=i, j=j: (reduced(g)[i, j] - base[i, j]).real)
            ref[i, j] += 1j * refine_linear(lambda g, i=i, j=j: (reduced(g)[i, j] - base[i, j]).imag)
    assert np.max(np.abs(got - ref)) < 1e-7


# ---------------------------------------------------------------------------
# expanded logarithmic derivative
# ---------------------------------------------------------------------------


def _assert_zeroth_order_is_bare_sld(exp, probe):
    """<H> - E_n, the zeroth order of the expanded logarithmic derivative, is
    the logarithmic derivative of the bare Gibbs state at the expansion's beta."""
    l0 = exp.probe_corr.mean_energy - exp.evals
    bare, support = bare_sld(probe, exp.beta)
    assert np.max(np.abs(bare - np.diag(l0))[support]) < 1e-14 * max(1.0, np.max(np.abs(l0)))
    return l0


def test_sld_zeroth_order_is_energy_fluctuation_operator():
    probe, bath = MODEL_PAIRS[0]
    _assert_zeroth_order_is_bare_sld(x_matrix(probe, bath, 1.0), probe)


def test_second_order_consumers_read_only_the_expansion():
    # beta, levels and populations come from the expansion itself, so an
    # expansion built for another beta or probe cannot be mislabelled
    for fn in (sld_second_order, cfi_energy_perturbative):
        assert list(inspect.signature(fn).parameters) == ["expansion"]
    probe, bath = MODEL_PAIRS[0]
    exp = x_matrix(probe, bath, 2.0)
    assert exp.beta == 2.0
    _assert_zeroth_order_is_bare_sld(exp, probe)


def test_sld_diagonal_equals_dx_diagonal_exactly():
    probe, bath = MODEL_PAIRS[1]
    exp = x_matrix(probe, bath, 1.0)
    alpha = sld_second_order(exp)
    assert np.array_equal(np.diag(alpha), np.real(np.diag(exp.pi_dx)) / exp.populations)


def test_expansion_refuses_an_empty_time_rule():
    # n_u = 0 reaches the graded time rule, which gives each panel at least 10 nodes
    with pytest.raises(ValueError, match="at least one node"):
        x_matrix(probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 3.0, 0, 128)


def test_snr_bound_builds_few_quadrature_rules(built_rules):
    # one frequency rule and one imaginary-time rule, shared by x_matrix and
    # the integral route
    probe, bath = MODEL_PAIRS[1]
    for beta in (0.1, 1.0, 10.0):  # beta * cutoff below and above the split
        built_rules.clear()
        snr_bound(probe, bath, 0.1, beta)
        assert len(built_rules) <= 2, (beta, built_rules)


def test_sld_alpha_is_exactly_hermitian():
    # A is symmetrised; before that, the matrix the closed form assembles
    # already drifts from Hermitian by no more than rounding
    probe, bath = MODEL_PAIRS[0]
    exp = x_matrix(probe, bath, 1.0)
    alpha = sld_second_order(exp)
    assert np.array_equal(alpha, alpha.conj().T)
    p = exp.populations
    gap_mn = exp.evals[None, :] - exp.evals[:, None]
    raw = (2.0 * exp.pi_dx + gap_mn * exp.pi_x) / (p[:, None] + p[None, :])
    assert np.max(np.abs(raw - raw.conj().T)) < 1e-10
    assert np.array_equal(alpha, 0.5 * (raw + raw.conj().T))


def test_sld_solves_the_expanded_lyapunov_equation():
    # (L rho + rho L)/2 must reproduce d rho / d beta order by order: check
    # the gamma^2 block in the probe eigenbasis against its defining equation,
    # d(pi X)/dbeta = (dpi) X + pi dX with dpi_n = p_n (<H> - E_n)
    probe, bath = MODEL_PAIRS[0]
    beta = 1.0
    exp = x_matrix(probe, bath, beta)
    alpha = sld_second_order(exp)
    p = exp.populations
    l0 = _assert_zeroth_order_is_bare_sld(exp, probe)
    pi_x = exp.pi_x
    lhs = 0.5 * (
        alpha * p[None, :]
        + p[:, None] * alpha
        + np.diag(l0) @ pi_x
        + pi_x @ np.diag(l0)
    )
    rhs = l0[:, None] * pi_x + exp.pi_dx
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
    for name in ("pi_x", "pi_dx"):
        r, c = getattr(real, name), getattr(cplx, name)
        assert r.dtype == np.float64 and c.dtype == np.complex128, name
        _assert_close(c, r, np.max(np.abs(r)))

    alpha_r = sld_second_order(real)
    alpha_c = sld_second_order(cplx)
    assert alpha_r.dtype == np.float64 and alpha_c.dtype == np.complex128
    _assert_close(alpha_c, alpha_r, np.max(np.abs(alpha_r)))

    rep_r, rep_c = snr_bound(probe, bath, 0.1, beta), snr_bound(twin, bath, 0.1, beta)
    for name in ("f0", "f2", "i2", "xi"):
        r = getattr(rep_r, name)
        _assert_close(getattr(rep_c, name), r, abs(r))
    # the oscillator's X01 and A01 vanish; measure them against their
    # matrices, X01 = (pi X)_01 / p_0 against max|pi X| / p_0
    _assert_close(rep_c.x01, rep_r.x01, np.max(np.abs(real.pi_x)) / real.populations[0])
    _assert_close(rep_c.alpha01, rep_r.alpha01, np.max(np.abs(alpha_r)))


def test_real_models_reach_rotations_and_solvers_as_float64(monkeypatch):
    # require_hermitian chooses the dtype where an operator enters the
    # library; for real-symmetric models nothing downstream widens it, so
    # every basis rotation and every LAPACK call runs in real arithmetic
    seen = []
    to_eig, from_eig = SpectralDecomposition.to_eigenbasis, SpectralDecomposition.from_eigenbasis
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def recorded(name, fn):
        # a rotation's operands are its eigenvectors and the operator
        def wrapper(*args):
            seen.append((name, [np.asarray(getattr(a, "evecs", a)).dtype for a in args]))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SpectralDecomposition, "to_eigenbasis", recorded("to", to_eig))
    monkeypatch.setattr(SpectralDecomposition, "from_eigenbasis", recorded("from", from_eig))
    monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded("eigvalsh", eigvalsh))

    beta = 1.3
    snr_bound(probe_qubit(1.0, 0.7), ContinuumBath(1.0, 100.0), 0.1, beta)
    probe, bath = probe_qubit(1.0, 0.7), bath_qubit(1.0)
    joint = JointModel(probe, bath, 0.1)
    exact_fishers(joint, beta)
    exact_mfg(joint, beta)
    x_matrix(probe, bath, beta).at_coupling(0.1)

    assert {name for name, _ in seen} == {"to", "from", "eigh", "eigvalsh"}
    assert all(dt == np.float64 for _, dts in seen for dt in dts), seen
