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
    eigendecompose,
    exact_fishers,
    exact_mfg,
    gibbs_state,
    load_config,
    oracle,
    order_fit,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    qfi_perturbative_integral,
    trace_distance,
)
from fctherm.linalg import gibbs_populations
from fctherm.oracle import _reduced_thermal_and_dbeta
from references import (
    exact_sld,
    gamma_grid,
    partial_trace_bath,
    random_hermitian,
    reference_two_qubit_models,
)


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


@pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, 0.1j, 0.1 + 0j])
def test_joint_model_refuses_non_finite_gamma(gamma):
    # exact_fishers used to fail at 0.1j with "matrix is not Hermitian"
    with pytest.raises(ValueError, match="gamma must be finite real"):
        JointModel(probe_qubit(1.0, 0.7), bath_qubit(1.3), gamma)


@pytest.mark.parametrize("beta", [-1.0, np.inf, np.nan])
def test_exact_references_refuse_beta_out_of_domain(beta):
    # a negative beta used to return finite Fishers, and inf NaN ones
    joint = JointModel(probe_qubit(1.0, 0.7), bath_qubit(1.3), 0.1)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        exact_fishers(joint, beta)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        exact_mfg(joint, beta)


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


# ---------------------------------------------------------------------------
# block-wise joint decomposition and the kept reduced state
# ---------------------------------------------------------------------------


def _benchmark_model(seed: int):
    """The benchmark's oracle model: a 10-level oscillator probe and a
    10-level mode with a seeded frequency in [0.42, 0.48], at two seeded
    beta in [0.8, 1.4]."""
    rng = np.random.default_rng(seed)
    omega_b = float(rng.uniform(0.42, 0.48))
    betas = sorted(float(b) for b in rng.uniform(0.8, 1.4, 2))
    return probe_oscillator(1.0, n_trunc=10), bath_mode(omega_b, n_levels=10), betas


def _config_model(config_dir, name: str):
    """A bundled scaling config's probe, built as ``scaling`` builds it, and bath."""
    cfg = load_config(config_dir / f"{name}.json")
    return cfg._design_probe(), cfg.build_bath(), [cfg.beta_grid.min]


def _unequal_blocks_model():
    """Probe levels 0 and 1 mix through the Hamiltonian and level 2 couples
    alone, while level 3 does not couple: blocks of 4 and 2 joint levels, and
    the two uncoupled ones, (3, 0) and (3, 1), as one diagonal block."""
    h = np.diag([0.0, 0.8, 1.9, 2.6])
    h[0, 1] = h[1, 0] = 0.3
    probe = probe_custom(h, np.diag([1.0, 0.5, -0.7, 0.0]))
    bath = DiscreteBath(np.diag([0.0, 0.6]), np.array([[0.2, 1.0], [1.0, -0.4]]))
    return probe, bath, [0.7, 1.5]


# (name, build, gamma, block sizes in the order of their smallest index)
BLOCK_MODELS = [
    ("benchmark-seed-71", lambda _: _benchmark_model(71), 0.05, [50, 50]),
    ("benchmark-seed-73", lambda _: _benchmark_model(73), 0.1, [50, 50]),
    ("scaling-oscillator-mode", lambda d: _config_model(d, "scaling_oscillator_mode"), 0.1,
     [84, 84]),
    ("unequal-blocks", lambda _: _unequal_blocks_model(), 0.2, [4, 2, 2]),
    ("sigma_y-coupling", lambda _: (probe_custom(SZ, SY), DiscreteBath(0.6 * SZ, SX), [0.5, 2.0]),
     0.3, [2, 2]),
    ("one-component", lambda _: (probe_qubit(1.0, np.pi / 4.0), bath_qubit(1.0), [1.0]), 0.1,
     [4]),
    ("zero-coupling", lambda _: _benchmark_model(72), 0.0, [100]),
]


def _dense_joint(probe, bath, gamma: float) -> JointModel:
    """A joint model whose decomposition is one LAPACK call on the whole matrix."""
    joint = JointModel(probe, bath, gamma)
    vars(joint)["decomp"] = eigendecompose(joint.hamiltonian)
    return joint


@pytest.mark.parametrize("name, build, gamma, sizes", BLOCK_MODELS,
                         ids=[m[0] for m in BLOCK_MODELS])
def test_block_decomposition_matches_the_dense_one(config_dir, monkeypatch, name, build, gamma,
                                                   sizes):
    probe, bath, betas = build(config_dir)
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return eigendecompose(matrix)

    monkeypatch.setattr(oracle, "eigendecompose", counted)
    joint = JointModel(probe, bath, gamma)
    h = joint.hamiltonian
    dec = joint.decomp
    monkeypatch.undo()
    assert [m.shape[0] for m in calls] == sizes
    if len(sizes) == 1:
        # one component, or none coupled: one call on the whole matrix
        assert np.array_equal(calls[0], h)
    else:
        # each block's eigenvectors sit in its own rows, exact zeros elsewhere
        assert dec._order is None
        for ix in oracle._connected_blocks(h):
            rest = np.setdiff1d(np.arange(h.shape[0]), ix)
            cols = np.flatnonzero(np.any(dec.evecs[ix] != 0, axis=0))
            assert cols.size == ix.size
            assert not dec.evecs[np.ix_(rest, cols)].any()
    dense = _dense_joint(probe, bath, gamma)
    assert dec.evecs.dtype == dense.decomp.evecs.dtype
    assert np.all(np.diff(dec.evals) >= 0)
    scale = max(1.0, float(np.max(np.abs(h))))
    assert np.max(np.abs(dec.evals - dense.decomp.evals)) <= 1e-13 * scale
    unitarity = dec.evecs.conj().T @ dec.evecs - np.eye(dec.dim)
    assert np.max(np.abs(unitarity)) <= 1e-13
    for beta in betas:
        rho, drho = _reduced_thermal_and_dbeta(joint, beta)
        rho_d, drho_d = _reduced_thermal_and_dbeta(dense, beta)
        assert np.max(np.abs(rho - rho_d)) <= 1e-14, beta
        assert np.max(np.abs(drho - drho_d)) <= 1e-14, beta
        for got, want in zip(exact_fishers(joint, beta), exact_fishers(dense, beta)):
            assert abs(got - want) <= 1e-12 * abs(want), beta


def _components_by_search(h: np.ndarray) -> list[list[int]]:
    """Connected components of the nonzero pattern by a plain depth-first
    search, listed as ``_connected_blocks`` lists them."""
    d = h.shape[0]
    seen, comps = set(), []
    for start in range(d):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(d):
                if (h[i, j] != 0 or h[j, i] != 0) and j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        comps.append(sorted(comp))
    singles = [c[0] for c in comps if len(c) == 1]
    comps = [c for c in comps if len(c) > 1] + ([singles] if singles else [])
    return sorted(comps)


def test_connected_blocks_match_a_plain_search():
    # some entries are set on one side of the diagonal only: each still joins
    # its two levels, so the block's own Hermiticity check sees it
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(1, 40))
        h = np.diag(rng.standard_normal(d))
        for _ in range(int(rng.integers(0, 2 * d))):
            i, j = rng.integers(0, d, 2)
            h[i, j] = rng.standard_normal()
            if rng.random() < 0.8:
                h[j, i] = h[i, j]
        assert [b.tolist() for b in oracle._connected_blocks(h)] == _components_by_search(h)
    h = np.diag(np.arange(4.0))
    h[3, 1] = 0.5
    with pytest.raises(ValueError, match="not Hermitian"):
        oracle._block_eigendecompose(h)


def test_exact_fishers_then_exact_mfg_share_one_reduced_state(monkeypatch):
    probe, bath, (beta, other) = _benchmark_model(71)
    products = []
    original = oracle._reduced_weighted

    def counted(joint, weights):
        products.append(weights.size)
        return original(joint, weights)

    monkeypatch.setattr(oracle, "_reduced_weighted", counted)
    joint = JointModel(probe, bath, 0.05)
    exact_fishers(joint, beta)
    rho = exact_mfg(joint, beta)
    assert len(products) == 2
    # the kept state is read-only and the one a fresh joint computes, to the bit
    kept, _ = _reduced_thermal_and_dbeta(joint, beta)
    assert len(products) == 2 and not kept.flags.writeable
    fresh = JointModel(probe, bath, 0.05)
    assert np.array_equal(rho.matrix, exact_mfg(fresh, beta).matrix)
    # another beta is computed afresh, not read from the kept one
    assert np.array_equal(exact_mfg(joint, other).matrix, exact_mfg(fresh, other).matrix)
    assert len(products) == 5


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
    gammas = gamma_grid()
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
    # the state exact_mfg computes on a joint that kept none
    assert np.array_equal(rho, exact_mfg(JointModel(probe, bath, gamma), beta).matrix)
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
    gammas = gamma_grid(1e-3, 1e-2)
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
    g = gamma_grid()
    fit = order_fit(g, 0.37 * g**4, scale=1.0)
    assert fit.slope == pytest.approx(4.0, abs=1e-10)
    assert 10.0**fit.intercept == pytest.approx(0.37, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.kept.all()


def test_order_fit_discards_points_below_noise_floor():
    g = gamma_grid()
    d = 1e-3 * g**2
    d[0] = 1e-17  # pure rounding noise at the smallest coupling
    fit = order_fit(g, d, scale=1.0)
    assert not fit.kept[0] and fit.kept[1:].all()
    assert fit.slope == pytest.approx(2.0, abs=1e-6)


def test_order_fit_flags_identically_vanishing_deviations():
    g = gamma_grid()
    fit = order_fit(g, np.full(g.size, 1e-18), scale=1.0)
    assert fit.indistinguishable
    assert math.isnan(fit.slope) and math.isnan(fit.intercept)


def test_order_fit_input_validation():
    with pytest.raises(ValueError, match="five"):
        order_fit([0.1, 0.2, 0.3], [1, 2, 3])
    g = gamma_grid()
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
