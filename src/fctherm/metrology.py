"""Temperature-estimation figures of merit at finite probe-bath coupling.

The inverse-temperature quantum Fisher information of the reduced state expands
as F = F0 + gamma^2 F2 + O(gamma^4), with F0 the bare energy variance.  F2 is
available through three independent routes that must agree:

* the *integral* route: an imaginary-time integral of products of probe and
  bath correlators and their beta-derivatives,
* the *sum* route: level sums over the state correction X and the
  logarithmic-derivative coefficient A,
* the *kernel* route: a frequency integral of the spectral density against a
  temperature-dependent kernel (useful for reading off which bath frequencies
  help or hurt thermometry).

At this order the classical Fisher information of an energy measurement has
the same correction coefficient, so the coupling correction to the optimal
signal-to-noise ratio is measurement-achievable:  (dT/T)^-2 <= beta^2 F =
C + gamma^2 xi with C the bare heat-capacity-like term and xi = beta^2 F2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityOperator,
    SpectralDecomposition,
    dephase,
    eigendecompose,
    gibbs_populations,
    quad_imaginary_time,
    sld_solve,
)
from .models import (
    DEFAULT_FREQ_NODES,
    ContinuumBath,
    ContinuumBathCorrelation,
    CorrelationFn,
    ProbeModel,
    probe_correlation,
    spectral_density,
)
from .perturbation import (
    DEFAULT_TIME_NODES,
    MeanForceExpansion,
    _as_bath_correlation,
    _require_beta,
    sld_second_order,
    x_matrix,
)
from .tolerances import DEFAULT_TOL, Tolerances


def _population_fisher(p: np.ndarray, evals: np.ndarray, x_nn=None, dx_nn=None) -> tuple[float, float]:
    """(F0, F2) of energy populations p_n (1 + gamma^2 X_nn), dE_n = E_n - <H>:
    F0 = sum_n p_n dE_n^2,  F2 = sum_n [p_n dE_n^2 X_nn - 2 p_n dE_n dX_nn], or 0 without X."""
    de = evals - float(np.dot(p, evals))
    f0 = float(np.dot(p, de**2))
    if x_nn is None:
        return f0, 0.0
    return f0, float(np.dot(p * de**2, x_nn) - 2.0 * np.dot(p * de, dx_nn))


def energy_variance(probe: ProbeModel, beta: float) -> float:
    """Bare-probe Fisher information F0 = Var(H) in the thermal state."""
    p, _ = gibbs_populations(probe.decomp.evals, beta)
    return _population_fisher(p, probe.decomp.evals)[0]


def _as_probe_correlation(
    probe: ProbeModel, beta: float, probe_corr: CorrelationFn | None
) -> CorrelationFn:
    """The probe correlator at ``beta``: the eigenbasis form, or a ready-made
    correlator checked against ``beta``."""
    if probe_corr is None:
        return probe_correlation(probe, beta, "eigenbasis")
    return _require_beta(probe_corr, beta, "probe")


def qfi_perturbative_integral(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    probe_corr: CorrelationFn | None = None,
) -> tuple[float, float]:
    """(F0, F2) with F2 from the imaginary-time integral route:

    F2 = int_0^beta du [ (beta-u) C_B * C_S'' + 2 (C_B + (beta-u) C_B') C_S' ]

    where primes are beta-derivatives at fixed u.  Ready-made correlators
    (``bath`` itself or ``probe_corr``) must have been built for ``beta``;
    ValueError otherwise.
    """
    probe_corr = _as_probe_correlation(probe, beta, probe_corr)
    bath_corr = _as_bath_correlation(bath, beta, n_omega)
    rule = quad_imaginary_time(n_u, beta, bath_corr.layer_width)
    u = rule.nodes
    tail = beta - u
    phi_b, dphi_b = (np.asarray(c, dtype=float) for c in bath_corr.value_and_dbeta(u))
    dphi_s = np.asarray(probe_corr.dbeta(u), dtype=float)
    d2phi_s = np.asarray(probe_corr.d2beta(u), dtype=float)
    integrand = tail * phi_b * d2phi_s + 2.0 * (phi_b + tail * dphi_b) * dphi_s
    return energy_variance(probe, beta), rule.integrate(integrand)


def qfi_perturbative_sum(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float]:
    """(F0, F2) with F2 from level sums over X and the log-derivative matrix A:

    F2 = sum_n p_n dE_n^2 X_nn - 2 sum_n p_n dE_n A_nn,   dE_n = E_n - <H>.
    """
    expansion = x_matrix(probe, bath, beta, n_u, n_omega, tol)
    a_nn = np.real(np.diag(sld_second_order(expansion).alpha))
    return _population_fisher(expansion.populations, expansion.evals,
                              np.real(np.diag(expansion.x)), a_nn)


def cfi_energy_perturbative(expansion: MeanForceExpansion) -> tuple[float, float]:
    """(I0, I2) for an energy measurement, from the population expansion.

    Populations p_n (1 + gamma^2 X_nn) give, to second order,

    I2 = sum_n [ p_n dE_n^2 X_nn - 2 p_n dE_n dX_nn ].

    Equal to the quantum coefficient at this order: the coupling correction
    to the optimal bound is achieved by the bare energy measurement.
    """
    return _population_fisher(expansion.populations, expansion.evals,
                              np.real(np.diag(expansion.x)), np.real(np.diag(expansion.x_dbeta)))


def cfi_energy_general(
    reference: ProbeModel | SpectralDecomposition,
    rho: np.ndarray | DensityOperator,
    drho: np.ndarray,
) -> float:
    """Classical Fisher information of an energy measurement on an arbitrary state.

    I = sum_n (d p_n)^2 / p_n over the populations in the reference eigenbasis.
    Levels with vanishing population and vanishing derivative are skipped; a
    vanishing population with finite derivative makes the information diverge
    and raises ValueError.
    """
    dec = reference.decomp if isinstance(reference, ProbeModel) else reference
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    p = np.real(np.diag(dec.to_eigenbasis(mat)))
    dp = np.real(np.diag(dec.to_eigenbasis(drho)))
    out = 0.0
    for pn, dpn in zip(p, dp):
        if pn <= 1e-300:
            if abs(dpn) > 1e-14:
                raise ValueError("population vanishes while its derivative does not")
            continue
        out += dpn * dpn / pn
    return float(out)


def cfi_energy_dephasing(
    reference: ProbeModel | SpectralDecomposition,
    rho: np.ndarray | DensityOperator,
    drho: np.ndarray,
    tol: Tolerances = DEFAULT_TOL,
) -> float:
    """tr( D(L)^2 D(rho) ) with L the full-state logarithmic derivative and D
    the dephasing map in the reference eigenbasis.

    Coincides with :func:`cfi_energy_general` when the state commutes with the
    reference Hamiltonian; with coherences of order gamma present, the two
    differ at order gamma^2 and the population form is the operational one.
    """
    dec = reference.decomp if isinstance(reference, ProbeModel) else reference
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    l_full = sld_solve(mat, drho, tol)
    ld = dephase(l_full, dec)
    rd = dephase(mat, dec)
    return float(np.real(np.trace(ld @ ld @ rd)))


# ----------------------------------------------------------------------------
# signal-to-noise bound and its spectral decomposition
# ----------------------------------------------------------------------------


@dataclass
class MetrologyReport:
    """Everything the reporting layer needs for one (beta, gamma) point."""

    beta: float
    temperature: float
    gamma: float
    f0: float
    f2: float                     # integral-route coupling coefficient
    i2: float                     # energy-measurement coefficient (sum route)
    c_bare: float                 # beta^2 F0
    xi: float                     # beta^2 F2
    snr_sq_pert: float            # c_bare + gamma^2 xi
    snr_sq_local: float           # bare-thermometry bound, == c_bare
    x01: complex                  # lowest off-diagonal of X (probe eigenbasis)
    alpha01: complex              # lowest off-diagonal of A
    zero_mean: bool               # bath coupling mean below threshold
    validity_ratio: float         # gamma^2 <S^2><B^2> beta^2 diagnostic

    @property
    def f_total(self) -> float:
        """Quantum Fisher information to second order, F0 + gamma^2 F2."""
        return self.f0 + self.gamma**2 * self.f2

    @property
    def i_total(self) -> float:
        """Energy-measurement Fisher information to second order."""
        return self.f0 + self.gamma**2 * self.i2


def snr_bound(
    probe: ProbeModel,
    bath,
    gamma: float,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> MetrologyReport:
    """Optimal relative-error bound (dT/T)^-2 <= beta^2 F to second order."""
    expansion = x_matrix(probe, bath, beta, n_u, n_omega, tol)
    sldexp = sld_second_order(expansion)
    probe_corr = expansion.probe_corr
    bath_corr = _as_bath_correlation(bath, beta, n_omega)
    f0, f2 = qfi_perturbative_integral(
        probe, bath_corr, beta, n_u, n_omega, probe_corr=probe_corr
    )
    _, i2 = cfi_energy_perturbative(expansion)
    c_bare = beta**2 * f0
    xi = beta**2 * f2
    mean_sq_s = float(probe_corr.value(0.0))
    mean_sq_b = float(bath_corr.value(0.0))
    # x_matrix has already refused a mean above the threshold; a correlator
    # without a ``mean`` is taken as zero-mean there too
    zero_mean = abs(getattr(bath_corr, "mean", 0.0)) <= tol.assumption_mean
    d = expansion.evals.size
    x01 = complex(expansion.x[0, 1]) if d > 1 else 0j
    a01 = complex(sldexp.alpha[0, 1]) if d > 1 else 0j
    return MetrologyReport(
        beta=beta,
        temperature=1.0 / beta,
        gamma=gamma,
        f0=f0,
        f2=f2,
        i2=i2,
        c_bare=c_bare,
        xi=xi,
        snr_sq_pert=c_bare + gamma**2 * xi,
        snr_sq_local=c_bare,
        x01=x01,
        alpha01=a01,
        zero_mean=zero_mean,
        validity_ratio=gamma**2 * mean_sq_s * mean_sq_b * beta**2,
    )


def snr_kernel(
    probe_corr: CorrelationFn,
    beta: float,
    omega,
    n_u: int = DEFAULT_TIME_NODES,
    layer: float | None = None,
) -> np.ndarray:
    """Frequency-resolved sensitivity kernel f(T, omega).

    xi = int_0^inf J(omega) f(T, omega) d omega.  Built from the per-frequency
    bath kernel K_w(u) = [e^{-u w} + e^{-(beta-u) w}] / (1 - e^{-beta w}) and
    its beta-derivative; all exponents non-positive.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    rule = quad_imaginary_time(n_u, beta, layer)
    u = rule.nodes
    tail = beta - u
    dphi_s = np.asarray(probe_corr.dbeta(u), dtype=float)
    d2phi_s = np.asarray(probe_corr.d2beta(u), dtype=float)
    den = 1.0 - np.exp(-beta * w)
    k_w = (np.exp(-np.multiply.outer(u, w)) + np.exp(-np.multiply.outer(tail, w))) / den
    dk_w = -w * (
        np.exp(-np.multiply.outer(tail, w)) + np.exp(-np.multiply.outer(beta + u, w))
    ) / den**2
    integrand = (
        tail[:, None] * k_w * d2phi_s[:, None]
        + 2.0 * (k_w + tail[:, None] * dk_w) * dphi_s[:, None]
    )
    out = beta**2 / np.pi * (rule.weights @ integrand)
    return out if np.ndim(omega) else float(out[0])


def xi_via_spectral_kernel(
    probe: ProbeModel,
    bath: ContinuumBath | ContinuumBathCorrelation,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    probe_corr: CorrelationFn | None = None,
) -> float:
    """xi by integrating the sensitivity kernel against the spectral density.

    The frequency rule is the bath correlator's own; a ready-made correlator
    (``bath`` or ``probe_corr``) must have been built for ``beta``.
    """
    probe_corr = _as_probe_correlation(probe, beta, probe_corr)
    bath_corr = _as_bath_correlation(bath, beta, n_omega)
    if not isinstance(bath_corr, ContinuumBathCorrelation):
        raise TypeError("the spectral-kernel route needs a continuum bath")
    rule = bath_corr.rule
    f_vals = snr_kernel(probe_corr, beta, rule.nodes, n_u, layer=bath_corr.layer_width)
    j_vals = spectral_density(bath_corr.bath, rule.nodes)
    return rule.integrate(j_vals * f_vals)


# ----------------------------------------------------------------------------
# high-temperature asymptotes
# ----------------------------------------------------------------------------


def high_T_asymptote(probe: ProbeModel, bath: ContinuumBath, beta: float) -> float:
    """Leading high-temperature closed form for xi (built-in probes only).

    qubit:       -2 sin^2(theta) epsilon^2 cutoff^a Gamma(s) beta^3 / (3 pi)
    oscillator:  -cutoff^a Gamma(s) beta^2 / (6 pi)   (unit mass, as built)

    with a = ``bath.dim_exponent``.  Since int_0^beta C_B du = (2/pi) int J/w dw
    does not depend on beta, any u-independent part of the probe correlator
    adds nothing to F2; the leading bath term is C_B ~ (2/(pi beta)) int J/w dw
    with int J/w dw = cutoff^a Gamma(s).  The limit needs beta * cutoff << 1,
    not just a hot probe: at beta * cutoff = 1 and beta * epsilon = 0.01 the
    kernel integral is 5 % (qubit) and 10 % (oscillator) below it.
    """
    if bath.s <= 0:
        raise ValueError("asymptote requires a positive low-frequency exponent")
    weight = bath.cutoff**bath.dim_exponent * math.gamma(bath.s)
    if probe.kind == "qubit":
        eps = probe.params["epsilon"]
        th = probe.params["theta"]
        return -2.0 * math.sin(th) ** 2 * eps**2 * weight * beta**3 / (3.0 * math.pi)
    if probe.kind == "oscillator":
        return -weight * beta**2 / (6.0 * math.pi)
    raise ValueError(f"no high-temperature closed form for probe kind {probe.kind!r}")
