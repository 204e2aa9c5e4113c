"""Acceptance matrix: one test per numbered criterion.

Criteria 1 and 3 compare extractions against the two-qubit models' closed
forms, each written once in ``references.py``.  Criterion 7 compares the
kernel route against the library's ``high_T_asymptote``, and its companion
against the same asymptote written out here, so the library's form and the
test cannot drift together.  The derivations are in the README.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from fctherm import (
    ContinuumBath,
    JointModel,
    OscillatorCorrelation,
    bath_correlation,
    bath_mode,
    bath_qubit,
    cfi_energy_perturbative,
    exact_fishers,
    exact_mfg,
    high_T_asymptote,
    order_fit,
    probe_correlation,
    probe_oscillator,
    probe_qubit,
    qfi_perturbative_integral,
    qfi_perturbative_sum,
    sld_second_order,
    snr_kernel,
    spectral_density,
    x_matrix,
    xi_via_spectral_kernel,
)
from fctherm.cli import CSV_COLUMNS
from references import (
    bare_sld,
    dissipative_sld_slope,
    exact_sld,
    gamma_grid,
    reference_two_qubit_models,
    x_matrix_fd_dbeta,
)
from refinement import pauli_coefficient, refine_linear, refine_quadratic

BETAS_REFERENCE = (0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# coefficient extraction from the exact reference (criterion 1 machinery)
# ---------------------------------------------------------------------------


def extract_state_linear(model, beta: float) -> float:
    axis = model.coherence_axis

    def fn(g: float) -> float:
        return pauli_coefficient(exact_mfg(model.joint(g), beta).matrix, axis)

    return refine_linear(fn)


def extract_state_quadratic(model, beta: float) -> float:
    def fn(g: float) -> float:
        return pauli_coefficient(exact_mfg(model.joint(g), beta).matrix, "z")

    return refine_quadratic(fn)


def extract_sld_linear(model, beta: float) -> float:
    if model.name == "dephasing":
        # commuting coupling: the linear response sits on the excited diagonal
        def fn(g: float) -> float:
            return float(np.real(exact_sld(model.joint(g), beta)[0, 0]))

    else:
        def fn(g: float) -> float:
            return pauli_coefficient(exact_sld(model.joint(g), beta), model.coherence_axis)

    return refine_linear(fn)


def extract_qfi_linear(model, beta: float) -> float:
    def fn(g: float) -> float:
        return exact_fishers(model.joint(g), beta)[0]

    return refine_linear(fn)


def extract_fi_gap_quadratic(model, beta: float) -> float:
    def fn(g: float) -> float:
        f, i = exact_fishers(model.joint(g), beta)
        return f - i

    return refine_quadratic(fn)


def assert_close(got: float, want: float, rel: float, label: str) -> None:
    dev = abs(got - want) / max(abs(want), 1e-300)
    assert dev <= rel, f"{label}: extracted {got:.8g} vs target {want:.8g} (rel dev {dev:.4f})"


def test_criterion_1_reference_model_closed_forms():
    t0 = time.perf_counter()
    models = reference_two_qubit_models()
    checks = []
    for beta in BETAS_REFERENCE:
        for name in ("dephasing", "dissipative"):
            model = models[name]
            c = model.coeffs(beta)
            checks.append(
                (extract_state_linear(model, beta), c["state_linear"],
                 f"{name} state linear coefficient at beta={beta}")
            )
            checks.append(
                (extract_state_quadratic(model, beta), c["state_quadratic"],
                 f"{name} state quadratic coefficient at beta={beta}")
            )
            checks.append(
                (extract_sld_linear(model, beta), c["sld_linear"],
                 f"{name} sld linear coefficient at beta={beta}")
            )
            if name == "dephasing":
                checks.append(
                    (extract_qfi_linear(model, beta), c["qfi_linear"],
                     f"{name} qfi linear coefficient at beta={beta}")
                )
            else:
                checks.append(
                    (extract_fi_gap_quadratic(model, beta), c["fi_gap_quadratic"],
                     f"{name} fisher-gap quadratic coefficient at beta={beta}")
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"extraction took {elapsed:.2f} s (budget 1 s)"
    failures = []
    for got, want, label in checks:
        dev = abs(got - want) / max(abs(want), 1e-300)
        if dev > 0.01:
            failures.append(f"{label}: extracted {got:.8g} vs target {want:.8g} (rel dev {dev:.4f})")
    assert not failures, "closed-form coefficient mismatches:\n" + "\n".join(failures)


# ---------------------------------------------------------------------------
# coupling-order scalings against the exact reference (criteria 2-4)
# ---------------------------------------------------------------------------


def test_criterion_2_fisher_gap_scales_at_fourth_order():
    t0 = time.perf_counter()
    probe, bath = probe_qubit(1.0, math.pi / 4.0), bath_qubit(1.0)
    beta = 1.0
    gammas = gamma_grid()
    f_vals, gaps = [], []
    for g in gammas:
        f, i = exact_fishers(JointModel(probe, bath, float(g)), beta)
        f_vals.append(f)
        gaps.append(abs(f - i))
    fit = order_fit(gammas, gaps, scale=max(f_vals))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f} s (budget 5 s)"
    assert not fit.indistinguishable
    assert 3.8 <= fit.slope <= 4.2, f"F - I slope {fit.slope:.4f} outside [3.8, 4.2]"


def test_criterion_3_first_order_gap_without_zero_mean():
    t0 = time.perf_counter()
    model = reference_two_qubit_models()["dissipative"]
    beta = 1.0
    gammas = gamma_grid()
    f_vals, gaps = [], []
    for g in gammas:
        f, i = exact_fishers(model.joint(float(g)), beta)
        f_vals.append(f)
        gaps.append(abs(f - i))
    fit = order_fit(gammas, gaps, scale=max(f_vals))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f} s (budget 5 s)"
    assert 1.9 <= fit.slope <= 2.1, f"F - I slope {fit.slope:.4f} outside [1.9, 2.1]"
    gap = dissipative_sld_slope(beta) ** 2
    assert_close(
        10.0**fit.intercept, gap, 0.05,
        f"dissipative fisher-gap leading coefficient at beta={beta}",
    )


def test_criterion_4_perturbative_truncation_is_fourth_order():
    t0 = time.perf_counter()
    probe, bath = probe_qubit(1.0, math.pi / 4.0), bath_qubit(1.0)
    beta = 1.0
    f0, f2 = qfi_perturbative_integral(probe, bath, beta)
    gammas = gamma_grid()
    f_vals, trunc = [], []
    for g in gammas:
        f, _ = exact_fishers(JointModel(probe, bath, float(g)), beta)
        f_vals.append(f)
        trunc.append(abs(f - (f0 + g**2 * f2)))
    fit = order_fit(gammas, trunc, scale=max(f_vals))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f} s (budget 5 s)"
    assert 3.8 <= fit.slope <= 4.2, f"|F - F_pert| slope {fit.slope:.4f} outside [3.8, 4.2]"


# ---------------------------------------------------------------------------
# route identities (criteria 5-6)
# ---------------------------------------------------------------------------


def builtin_model_pairs(beta: float):
    return [
        ("qubit theta=0 / power-law bath", probe_qubit(1.0, 0.0), ContinuumBath(1.0, 100.0)),
        ("qubit theta=pi/4 / power-law bath", probe_qubit(1.0, math.pi / 4.0), ContinuumBath(1.0, 100.0)),
        ("qubit theta=3pi/2 / power-law bath", probe_qubit(1.0, 1.5 * math.pi), ContinuumBath(1.0, 100.0)),
        ("qubit theta=pi/4 / two-level bath", probe_qubit(1.0, math.pi / 4.0), bath_qubit(1.0)),
        ("oscillator / power-law bath", probe_oscillator(1.0, beta_design=beta),
         ContinuumBath(1.0, 100.0, dim_exponent=2.0)),
        ("oscillator / single-mode bath", probe_oscillator(1.0, beta_design=beta), bath_mode(1.0, 20)),
    ]


def test_criterion_5_integral_and_sum_routes_agree():
    for beta in BETAS_REFERENCE:
        for label, probe, bath in builtin_model_pairs(beta):
            f0_a, f2_int = qfi_perturbative_integral(probe, bath, beta)
            f0_b, f2_sum = qfi_perturbative_sum(probe, bath, beta)
            _, i2 = cfi_energy_perturbative(x_matrix(probe, bath, beta))
            assert f0_a == f0_b
            # relative agreement with an absolute floor: a commuting probe
            # makes both routes identically zero up to rounding
            diff = abs(f2_int - f2_sum)
            floor = max(1e-7 * max(abs(f2_int), abs(f2_sum)), 1e-12)
            assert diff <= floor, (
                f"{label} at beta={beta}: integral route {f2_int!r} vs sum route "
                f"{f2_sum!r} differ by {diff:.3e}"
            )
            assert abs(i2 - f2_sum) <= 1e-14 * max(1.0, abs(f2_sum)), (
                f"{label} at beta={beta}: energy-measurement coefficient {i2!r} "
                f"deviates from sum-route {f2_sum!r}"
            )


def test_criterion_6_kernel_route_and_sign():
    probe = probe_qubit(1.0, 1.5 * math.pi)
    bath = ContinuumBath(1.0, 100.0)
    for beta in np.logspace(math.log10(0.05), math.log10(5.0), 9):
        beta = float(beta)
        _, f2 = qfi_perturbative_integral(probe, bath, beta)
        xi_direct = beta**2 * f2
        xi_kernel = xi_via_spectral_kernel(probe, bath, beta)
        assert abs(xi_kernel - xi_direct) <= 1e-6 * abs(xi_direct), (
            f"beta={beta:.4g}: kernel route {xi_kernel!r} vs direct {xi_direct!r}"
        )
        assert xi_kernel < 0.0, f"beta={beta:.4g}: xi = {xi_kernel!r} is not negative"


# ---------------------------------------------------------------------------
# high-temperature asymptotics (criterion 7)
# ---------------------------------------------------------------------------


BETA_HIGH_T = 0.01
# (s, Omega, a) of the baths README's derivation names
HIGH_T_BATHS = [(1.0, 1.0, 1.0), (1.0, 0.5, 1.0), (1.5, 0.5, 1.0), (1.0, 0.5, 2.0), (1.5, 2.0, 2.0)]


def high_T_cases(s: float, omega: float, a: float):
    beta = BETA_HIGH_T
    bath = ContinuumBath(s, omega, dim_exponent=a)
    qubit = probe_qubit(1.0, 1.5 * math.pi)
    qubit_xi = xi_via_spectral_kernel(qubit, bath, beta)
    # a truncated oscillator would need ~1400 levels at this beta, so its xi is
    # the kernel of the closed-form correlator on the bath correlator's rule
    osc = probe_oscillator(1.0, n_trunc=40)
    bath_corr = bath_correlation(bath, beta)
    nodes = bath_corr.rule.nodes
    kernel = snr_kernel(OscillatorCorrelation(1.0, beta), nodes, layer=bath_corr.layer_width)
    osc_xi = bath_corr.rule.integrate(spectral_density(bath, nodes) * kernel)
    return beta, [("qubit", qubit, bath, qubit_xi), ("oscillator", osc, bath, osc_xi)]


@pytest.mark.parametrize("s, omega, a", HIGH_T_BATHS)
def test_criterion_7_high_temperature_asymptote(s, omega, a):
    beta, cases = high_T_cases(s, omega, a)
    for label, probe, bath, xi in cases:
        target = high_T_asymptote(probe, bath, beta)
        assert_close(xi, target, 0.02, f"{label} xi at beta={beta} vs library asymptote")


@pytest.mark.parametrize("s, omega, a", HIGH_T_BATHS)
def test_criterion_7_companion_rederived_asymptote(s, omega, a):
    # int_0^beta C_B du = (2/pi) int J/w dw is beta-independent, so only the
    # u-dependent part of the probe correlator contributes; with
    # int J/w dw = Omega^a Gamma(s) the leading small-beta terms are
    #   qubit:      -2 sin^2(theta) eps^2 Omega^a Gamma(s) beta^3 / (3 pi)
    #   oscillator: -Omega^a Gamma(s) beta^2 / (6 pi m)
    beta, cases = high_T_cases(s, omega, a)
    for label, probe, bath, xi in cases:
        weight = bath.cutoff**bath.dim_exponent * math.gamma(bath.s)
        if label == "qubit":
            eps, th = probe.params["epsilon"], probe.params["theta"]
            target = -2.0 * math.sin(th) ** 2 * eps**2 * weight * beta**3 / (3.0 * math.pi)
        else:
            target = -weight * beta**2 / (6.0 * math.pi)
        assert_close(xi, target, 0.02, f"{label} xi at beta={beta} vs rederived asymptote")


# ---------------------------------------------------------------------------
# property suites (criterion 8)
# ---------------------------------------------------------------------------


def test_criterion_8_property_suites():
    t0 = time.perf_counter()

    # (a) thermal reflection symmetry of every correlator family
    beta = 1.7
    correlators = [
        ("qubit level sum", probe_correlation(probe_qubit(1.0, 0.9), beta)),
        ("qubit level sum, theta = 2", probe_correlation(probe_qubit(1.0, 2.0), beta)),
        ("oscillator closed form", OscillatorCorrelation(1.2, beta)),
        ("two-level bath", bath_correlation(bath_qubit(0.7), beta)),
        ("single-mode bath", bath_correlation(bath_mode(1.0, 25), beta)),
        ("power-law bath", bath_correlation(ContinuumBath(1.0, 50.0), beta)),
    ]
    u = np.linspace(0.0, beta, 11)
    for label, corr in correlators:
        drift = np.max(np.abs(corr.value(u) - corr.value(beta - u)))
        scale = max(1.0, float(np.max(np.abs(corr.value(u)))))
        assert drift <= 1e-10 * scale, f"reflection drift {drift:.3e} for {label}"

    pairs = [
        ("qubit / two-level bath", probe_qubit(1.0, math.pi / 4.0), bath_qubit(1.0)),
        ("qubit / power-law bath", probe_qubit(1.0, 1.5 * math.pi), ContinuumBath(1.0, 100.0)),
        ("qubit / single-mode bath", probe_qubit(0.7, 0.3), bath_mode(1.0, 25)),
    ]

    for beta in (0.5, 2.0):
        all_pairs = pairs + [
            ("oscillator / power-law bath", probe_oscillator(1.0, beta_design=beta),
             ContinuumBath(1.0, 100.0, dim_exponent=2.0)),
        ]
        for label, probe, bath in all_pairs:
            exp = x_matrix(probe, bath, beta)
            scale = max(1.0, float(np.max(np.abs(exp.pi_x))))
            # (b) population-weighted correction is traceless
            trace = float(np.real(np.trace(exp.pi_x)))
            assert abs(trace) <= 1e-10 * scale, f"{label} at beta={beta}: tr(pi X) = {trace:.3e}"
            # (c) analytic beta-derivative matches finite differences of pi X,
            # which also see d pi_n / d beta = -(E_n - <H>) p_n
            fd = x_matrix_fd_dbeta(probe, bath, beta)
            fd_scale = max(1.0, float(np.max(np.abs(fd))))
            de = exp.evals - exp.probe_corr.mean_energy
            dev = float(np.max(np.abs(exp.pi_dx - de[:, None] * exp.pi_x - fd)))
            assert dev <= 1e-6 * fd_scale, f"{label} at beta={beta}: dX mismatch {dev:.3e}"
            # (e) expanded log-derivative solves its anticommutator equation
            alpha = sld_second_order(exp)
            p = exp.populations
            l0 = exp.probe_corr.mean_energy - exp.evals  # zeroth order, <H> - E_n
            bare, support = bare_sld(probe, beta)
            l0_dev = float(np.max(np.abs(bare - np.diag(l0))[support]))
            assert l0_dev <= 1e-12 * max(1.0, float(np.max(np.abs(l0)))), (
                f"{label} at beta={beta}: <H> - E_n is {l0_dev:.3e} from the bare SLD"
            )
            pi_x = exp.pi_x
            lhs = 0.5 * (
                alpha * p[None, :] + p[:, None] * alpha
                + np.diag(l0) @ pi_x + pi_x @ np.diag(l0)
            )
            rhs = l0[:, None] * pi_x + exp.pi_dx
            resid = float(np.max(np.abs(lhs - rhs)))
            assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(rhs)))), (
                f"{label} at beta={beta}: log-derivative residual {resid:.3e}"
            )

    # (d) the quantum bound dominates the energy-measurement bound on every
    # exact reduced state
    exact_models = [m.joint for m in reference_two_qubit_models().values()]
    exact_models.append(lambda g: JointModel(probe_qubit(1.0, math.pi / 4.0), bath_qubit(1.0), g))
    for make in exact_models:
        for g in (0.02, 0.1, 0.3):
            for beta in BETAS_REFERENCE:
                f, i = exact_fishers(make(g), beta)
                assert f - i >= -1e-10, (
                    f"gamma={g}, beta={beta}: F = {f!r} < I = {i!r}"
                )

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"property suites took {elapsed:.1f} s (budget 60 s)"


# ---------------------------------------------------------------------------
# figure-data emission (criterion 9)
# ---------------------------------------------------------------------------


def load_report(csv_path):
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    cols = {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(CSV_COLUMNS[:14])}
    return rows, cols


def test_criterion_9_figure_reports_have_documented_shapes(in_process_passes):
    # both figure configs are bundled: the session's cold pass has run them
    rows, c = load_report(in_process_passes[0] / "report-report_oscillator_ohmic.csv")
    assert len(rows) == 25
    beta = c["beta"]
    assert np.all(np.diff(beta) > 0)
    # hot end: the bare bound saturates at the classical value 1
    assert abs(c["C_S"][0] - 1.0) < 0.05
    # the bare bound only degrades as the probe gets colder
    assert np.all(np.diff(c["C_S"]) < 0)
    # at the cold end the coupling correction is negative: the attainable
    # bound sits below the local-thermal one
    assert c["xi"][-1] < 0.0
    assert c["snr_sq_pert"][-1] < c["snr_sq_local"][-1]
    # there is an intermediate window where the coupling helps
    assert np.max(c["xi"]) > 0.0

    rows, c = load_report(in_process_passes[0] / "report-report_qubit_transverse.csv")
    assert len(rows) == 50
    # transverse-coupled qubit: the correction is negative everywhere, so the
    # perturbative bound is below the local-thermal bound at every point
    assert np.all(c["xi"] < 0.0)
    assert np.all(c["snr_sq_pert"] < c["snr_sq_local"])
    # both bounds vanish at the hot end
    peak = float(np.max(c["snr_sq_local"]))
    assert c["snr_sq_pert"][0] < 0.01 * peak
    assert c["snr_sq_local"][0] < 0.01 * peak
    # the bare bound rises to an interior optimum and falls off when cold
    k = int(np.argmax(c["C_S"]))
    assert 0 < k < len(rows) - 1
    assert np.all(np.diff(c["C_S"][: k + 1]) > 0)
    assert np.all(np.diff(c["C_S"][k:]) < 0)
