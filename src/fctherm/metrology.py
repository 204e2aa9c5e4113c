"""Temperature-estimation figures of merit at finite probe-bath coupling.

The inverse-temperature quantum Fisher information of the reduced state expands
as F = F0 + gamma^2 F2 + O(gamma^4), with F0 the bare energy variance.  F2 is
computed by two routes that must agree to rounding:

* the *integral* route: an imaginary-time integral of products of probe and
  bath correlators and their beta-derivatives,
* the *kernel* route: a frequency integral of the spectral density against a
  temperature-dependent kernel (useful for reading off which bath frequencies
  help or hurt thermometry).

F2 is linear in the bath correlator, so the kernel at omega is the integral
route against one harmonic bath mode at omega: the routes share nodes and
integrand, one discretisation summed in two orders, so their agreement checks
the algebra, not the quadrature.

At this order the classical Fisher information of an energy measurement has
the same correction coefficient, I2 = F2: the level-sum form of F2 over X and
the logarithmic-derivative matrix A reads only A_nn, and A_nn = dX_nn/dbeta,
so it is I2 term by term.  Both read the expansion's state correction pi X
and pi dX/dbeta as they are.  The coupling correction to the optimal
signal-to-noise ratio is therefore measurement-achievable:  (dT/T)^-2 <=
beta^2 F = C + gamma^2 xi with C the bare heat-capacity-like term and
xi = beta^2 F2.

Since I2 reads only diagonals, it forms no level-pair block, and
:func:`snr_bound` forms only the block of the lowest two levels
(``MeanForceExpansion.block(2)``), for the reported X01 = (pi X)_01 / p_0
(the one division by a population) and A_01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    QuadratureRule,
    SpectralDecomposition,
    quad_imaginary_time,
)
from .models import (
    DEFAULT_FREQ_NODES,
    ContinuumBath,
    CorrelationFn,
    EigenbasisCorrelation,
    OscillatorCorrelation,
    ProbeModel,
    bath_correlation,
    probe_correlation,
    spectral_density,
)
from .perturbation import DEFAULT_TIME_NODES, MeanForceExpansion, _sld, x_matrix
from .tolerances import DEFAULT_TOL, Tolerances


def qfi_perturbative_integral(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    probe_corr: EigenbasisCorrelation | None = None,
) -> tuple[float, float]:
    """(F0, F2) with F0 = Var(H) the probe correlator's energy variance and F2
    from the imaginary-time integral route:

    F2 = int_0^beta du [ (beta-u) C_B * C_S'' + 2 (C_B + (beta-u) C_B') C_S' ]

    where primes are beta-derivatives at fixed u.  ``bath`` is a bath
    specification, whose correlator is built here; a ready-made
    ``probe_corr`` must be an :class:`EigenbasisCorrelation` (TypeError
    otherwise) built for exactly ``beta`` (ValueError otherwise): the
    integrand's beta - u is the bath correlator's, built here at ``beta``.
    """
    if probe_corr is None:
        probe_corr = probe_correlation(probe, beta)
    elif not isinstance(probe_corr, EigenbasisCorrelation):
        raise TypeError("F0 needs the level-sum probe correlator (EigenbasisCorrelation)")
    elif probe_corr.beta != float(beta):
        raise ValueError("probe correlator was built for a different beta")
    bath_corr = bath_correlation(bath, beta, n_omega)
    rule = quad_imaginary_time(n_u, beta, bath_corr.layer_width)
    return probe_corr.energy_var, float(_f2_integral(rule, bath_corr, probe_corr))


def _f2_integral(rule: QuadratureRule, bath_corr: CorrelationFn, probe_corr: CorrelationFn):
    """The integral-route F2 on ``rule`` (see :func:`qfi_perturbative_integral`),
    from the bath correlator's node terms (beta - u) C_B and
    2 (C_B + (beta - u) C_B'), so both correlators must share one beta.  The
    node axis is contracted last, so a bath correlator built over a column of
    frequencies gives one F2 per mode."""
    terms = bath_corr.rule_terms(rule)
    dphi_s = np.asarray(probe_corr.dbeta(rule.nodes), dtype=float)
    d2phi_s = np.asarray(probe_corr.d2beta(rule.nodes), dtype=float)
    return (terms.tail_phi * d2phi_s + terms.f2_dphi * dphi_s) @ rule.weights


def qfi_perturbative_sum(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[float, float]:
    """(F0, F2) from level sums over X and the log-derivative matrix A:

    F2 = sum_n p_n dE_n^2 X_nn - 2 sum_n p_n dE_n A_nn,   dE_n = E_n - <H>.

    Only the diagonal of A enters, and A_nn = dX_nn (see
    :func:`sld_second_order`), so this is :func:`cfi_energy_perturbative` on
    the expansion at ``beta``: the identity F2 = I2, not a separate
    discretisation, and no level-pair block is formed.
    """
    return cfi_energy_perturbative(x_matrix(probe, bath, beta, n_u, n_omega, tol))


def cfi_energy_perturbative(expansion: MeanForceExpansion) -> tuple[float, float]:
    """(I0, I2) for an energy measurement, from the population expansion.

    Populations p_n + gamma^2 (pi X)_nn give I0 = Var(H) and, to second order,

    I2 = sum_n [ dE_n^2 (pi X)_nn - 2 dE_n (pi dX)_nn ],   dE_n = E_n - <H>,

    with the levels, populations and Var(H) read from the expansion's probe
    correlator.  Equal to the quantum coefficient at this order: the coupling
    correction to the optimal bound is achieved by the bare energy
    measurement.  The diagonals p_n X_nn and p_n dX_nn/dbeta come from
    ``x_diag`` and ``dx_diag``, so no level-pair block is formed, and are
    summed as the strided columns of one (d x 2) array: numpy hands a strided
    and a contiguous vector to different BLAS dot loops, which round apart.
    """
    corr = expansion.probe_corr
    p = corr.populations
    diagonals = np.empty((p.size, 2))
    np.multiply(p, expansion.x_diag, out=diagonals[:, 0])
    np.multiply(p, expansion.dx_diag, out=diagonals[:, 1])
    de = corr.thermal.centred
    return corr.energy_var, float(np.dot(de**2, diagonals[:, 0])
                                  - 2.0 * np.dot(de, diagonals[:, 1]))


def cfi_energy_general(
    reference: SpectralDecomposition, rho: np.ndarray, drho: np.ndarray
) -> float:
    """Classical Fisher information of an energy measurement on an arbitrary state.

    I = sum_n (d p_n)^2 / p_n over the populations in the eigenbasis of
    ``reference`` (for a probe, ``probe.decomp``).  Levels with vanishing
    population and vanishing derivative are skipped; a vanishing population
    with finite derivative makes the information diverge and raises
    ValueError.
    """
    p = np.real(np.diag(reference.to_eigenbasis(rho)))
    dp = np.real(np.diag(reference.to_eigenbasis(drho)))
    out = 0.0
    for pn, dpn in zip(p, dp):
        if pn <= 1e-300:
            if abs(dpn) > 1e-14:
                raise ValueError("population vanishes while its derivative does not")
            continue
        out += dpn * dpn / pn
    return float(out)


# ----------------------------------------------------------------------------
# signal-to-noise bound and its spectral decomposition
# ----------------------------------------------------------------------------


@dataclass
class MetrologyReport:
    """Everything the reporting layer needs for one (beta, gamma) point.

    Only what :func:`snr_bound` computes is stored; the derived figures are
    read-only properties, so a report cannot disagree with itself.
    """

    beta: float
    gamma: float
    f0: float
    f2: float                     # integral-route coupling coefficient
    i2: float                     # energy-measurement coefficient
    x01: complex                  # lowest off-diagonal of X, (pi X)_01 / p_0
    alpha01: complex              # lowest off-diagonal of A
    validity_ratio: float         # gamma^2 <S^2><B^2> beta^2 diagnostic

    @property
    def temperature(self) -> float:
        return 1.0 / self.beta

    @property
    def c_bare(self) -> float:
        return self.beta**2 * self.f0

    @property
    def xi(self) -> float:
        return self.beta**2 * self.f2

    @property
    def snr_sq_pert(self) -> float:
        return self.c_bare + self.gamma**2 * self.xi

    @property
    def snr_sq_local(self) -> float:
        return self.c_bare  # the bare-thermometry bound


def snr_bound(
    probe: ProbeModel,
    bath,
    gamma: float,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> MetrologyReport:
    """Optimal relative-error bound (dT/T)^-2 <= beta^2 F to second order.

    Only the populations and the lowest coherence are read, so of the
    expansion :func:`x_matrix` returns, the level-pair sums, their d x 2 gap
    tables and the SLD coefficient A are evaluated on the lowest two levels
    alone: I2 from the diagonal (:func:`cfi_energy_perturbative`),
    X01 = (pi X)_01 / p_0 and A_01 from the 2 x 2 block.  A bath coupling
    with a nonzero thermal mean is refused by :func:`x_matrix`
    (:class:`NonzeroMeanError`, a ValueError), so every report describes a
    zero-mean environment.  A ``gamma`` that is not finite and real raises
    ValueError.
    """
    if not (np.isrealobj(gamma) and np.isfinite(gamma)):
        raise ValueError(f"coupling gamma must be finite real, got {gamma}")
    expansion = x_matrix(probe, bath, beta, n_u, n_omega, tol)
    probe_corr = expansion.probe_corr
    f0, f2 = qfi_perturbative_integral(probe, bath, beta, n_u, n_omega, probe_corr=probe_corr)
    _, i2 = cfi_energy_perturbative(expansion)
    mean_sq_s = float(probe_corr.value(0.0))
    mean_sq_b = float(expansion.bath_corr.value(0.0))
    p = probe_corr.populations
    x01 = a01 = 0j
    if p.size > 1:
        pi_x, pi_dx = expansion.block(2)
        alpha = _sld(p[:2], probe_corr.evals[:2], pi_x, pi_dx)
        x01, a01 = complex(pi_x[0, 1] / p[0]), complex(alpha[0, 1])
    return MetrologyReport(
        beta=beta,
        gamma=gamma,
        f0=f0,
        f2=f2,
        i2=i2,
        x01=x01,
        alpha01=a01,
        validity_ratio=gamma**2 * mean_sq_s * mean_sq_b * beta**2,
    )


def snr_kernel(
    probe_corr: CorrelationFn,
    omega,
    n_u: int = DEFAULT_TIME_NODES,
    layer: float | None = None,
) -> np.ndarray:
    """Frequency-resolved sensitivity kernel f(T, omega).

    xi = int_0^inf J(omega) f(T, omega) d omega, and f is 2 omega beta^2 / pi
    times the F2 of one unit-mass mode at omega, whose bath kernel
    [e^{-u w} + e^{-(beta-u) w}] / (1 - e^{-beta w}) is 2 w <x(-iu) x>.  The
    inverse temperature is the probe correlator's; an omega that is not
    positive and finite raises ValueError.
    """
    beta = probe_corr.beta
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    rule = quad_imaginary_time(n_u, beta, layer)
    modes = OscillatorCorrelation(w[:, None], beta)
    out = 2.0 * w * beta**2 / np.pi * _f2_integral(rule, modes, probe_corr)
    return out if np.ndim(omega) else float(out[0])


def xi_via_spectral_kernel(
    probe: ProbeModel,
    bath: ContinuumBath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
) -> float:
    """xi by integrating the level-sum probe correlator's sensitivity kernel against J.

    The frequency rule is that of the bath correlator built here at ``beta``
    with ``n_omega`` nodes; any ``bath`` but a ``ContinuumBath`` raises
    TypeError.
    """
    if not isinstance(bath, ContinuumBath):
        raise TypeError("the spectral-kernel route needs a continuum bath")
    bath_corr = bath_correlation(bath, beta, n_omega)
    rule = bath_corr.rule
    f_vals = snr_kernel(probe_correlation(probe, beta), rule.nodes, n_u, bath_corr.layer_width)
    j_vals = spectral_density(bath, rule.nodes)
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

    A probe of any other kind, or a qubit whose ``params`` lack ``epsilon``
    or ``theta``, raises ValueError, as does a beta that is not positive and
    finite; any ``bath`` but a ``ContinuumBath`` raises TypeError.
    """
    if not 0 < beta < np.inf:  # NaN too
        raise ValueError("beta must be positive and finite")
    if not isinstance(bath, ContinuumBath):
        raise TypeError("the high-temperature asymptote needs a continuum bath")
    weight = bath.cutoff**bath.dim_exponent * math.gamma(bath.s)
    if probe.kind == "qubit":
        missing = [k for k in ("epsilon", "theta") if k not in probe.params]
        if missing:
            raise ValueError(f"no high-temperature closed form for a qubit probe "
                             f"without {' and '.join(missing)}")
        eps = probe.params["epsilon"]
        th = probe.params["theta"]
        return -2.0 * math.sin(th) ** 2 * eps**2 * weight * beta**3 / (3.0 * math.pi)
    if probe.kind == "oscillator":
        return -weight * beta**2 / (6.0 * math.pi)
    raise ValueError(f"no high-temperature closed form for probe kind {probe.kind!r}")
