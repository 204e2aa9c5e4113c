"""Second-order coupling corrections to the probe's reduced thermal state.

For a probe coupled to a thermal environment through gamma * S (x) B with a
zero-mean B, the reduced state is

    rho(gamma) = pi (1 + gamma^2 X) + O(gamma^4),

with pi the bare thermal state.  In the probe eigenbasis (energies E_n,
populations p_n, coupling matrix S_nk):

    X_nn     = int_0^beta du (beta - u) C_B(u) [ sigma_n(u) - C_S(u) ]
    X_nm     = (1/(E_n - E_m)) sum_k S_nk S_km
               int_0^beta du C_B(u) [ e^{u (E_m - E_k)} e^{beta (E_n - E_m)}
                                      - e^{u (E_n - E_k)} ],  n != m

where sigma_n(u) = sum_k |S_nk|^2 e^{-u (E_k - E_n)} and C_S = sum_n p_n
sigma_n is the probe correlator.  Near-degenerate pairs use the analytic
limit of the second line.  The probe's level data (rotated coupling,
populations, sigma_n) come from one EigenbasisCorrelation per point, which the
expansion carries.  The beta-derivative of X, needed for estimation theory,
is always assembled alongside X; a finite-difference version is kept for
cross-validation.

When the environment mean is non-zero there is also a first-order term,
handled by :func:`p1_operator`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .errors import CouplingTooStrongError
from .linalg import DensityOperator, QuadratureRule, quad_imaginary_time
from .models import (
    DEFAULT_FREQ_NODES,
    ContinuumBath,
    CorrelationFn,
    DiscreteBath,
    EigenbasisCorrelation,
    ProbeModel,
    bath_correlation,
)
from .tolerances import DEFAULT_TOL, Tolerances

DEFAULT_TIME_NODES = 64  # imaginary-time rule size


def _require_beta(corr: CorrelationFn, beta: float, role: str) -> CorrelationFn:
    """Return ``corr``; raise if it was built for another inverse temperature."""
    if abs(corr.beta - beta) > 1e-15 * max(1.0, beta):
        raise ValueError(f"{role} correlator was built for a different beta")
    return corr


def _as_bath_correlation(bath, beta: float, n_omega: int) -> CorrelationFn:
    """The bath correlator at ``beta``: built from a bath specification, or a
    ready-made correlator checked against ``beta``."""
    if isinstance(bath, CorrelationFn):
        return _require_beta(bath, beta, "bath")
    if isinstance(bath, (ContinuumBath, DiscreteBath)):
        return bath_correlation(bath, beta, n_omega)
    raise TypeError(f"unsupported bath specification: {type(bath).__name__}")


@dataclass
class MeanForceExpansion:
    """Second-order reduced-state expansion in the probe eigenbasis.

    ``x`` and ``x_dbeta`` are float64 when the probe's eigenvectors and
    coupling are real (every built-in probe), complex128 otherwise.
    ``probe_corr`` is the probe correlator the expansion was assembled from;
    it supplies the inverse temperature, the levels, the populations and the
    basis the state is rotated back with.  ``tol`` holds the thresholds the
    expansion was built under, which :meth:`at_coupling` applies too.
    """

    x: np.ndarray                    # correction matrix, probe eigenbasis
    x_dbeta: np.ndarray              # analytic d X / d beta (same basis)
    rule: QuadratureRule
    probe_corr: EigenbasisCorrelation
    tol: Tolerances = DEFAULT_TOL
    hermiticity_drift: float = 0.0   # max |pi X - (pi X)^dag| before symmetrisation
    gamma: float | None = None
    state: DensityOperator | None = None  # assembled state, original basis
    trace_renormalised: bool = False

    @property
    def beta(self) -> float:
        return self.probe_corr.beta

    @property
    def evals(self) -> np.ndarray:
        return self.probe_corr.evals

    @property
    def populations(self) -> np.ndarray:
        return self.probe_corr.populations

    def weighted_x(self) -> np.ndarray:
        """pi X in the eigenbasis (the actual state correction)."""
        return self.populations[:, None] * self.x

    def trace_identity(self) -> float:
        """tr(pi X); vanishes identically for the exact expansion."""
        return float(np.real(np.trace(self.weighted_x())))

    def at_coupling(self, gamma: float) -> MeanForceExpansion:
        """A copy carrying the assembled state pi (1 + gamma^2 X) at ``gamma``.

        X does not depend on the coupling, so one expansion serves every
        gamma; it is never modified here.  Raises
        :class:`CouplingTooStrongError` when the state has an eigenvalue below
        ``tol.psd_mean_force`` (the expansion left its regime).  Warns when
        symmetrising away more than ``tol.hermit_drift``.
        """
        tol = self.tol
        if self.hermiticity_drift > tol.hermit_drift:
            warnings.warn(
                f"state correction drifted from Hermitian by {self.hermiticity_drift:.3e}; "
                "symmetrised",
                stacklevel=2,
            )
        rho_eig = np.diag(self.populations) + gamma**2 * self.weighted_x()
        rho_eig = 0.5 * (rho_eig + rho_eig.conj().T)
        rho = self.probe_corr.decomp.from_eigenbasis(rho_eig)
        rho = 0.5 * (rho + rho.conj().T)
        tr = float(np.real(np.trace(rho)))
        renormalised = abs(tr - 1.0) > tol.unit_trace
        if renormalised:
            rho = rho / tr
        state = DensityOperator(rho, tol)
        mn = state.min_eigenvalue()
        if mn < tol.psd_mean_force:
            raise CouplingTooStrongError(
                f"second-order state has eigenvalue {mn:.3e} < {tol.psd_mean_force:.1e}; "
                f"coupling gamma={gamma} is too strong at beta={self.beta}"
            )
        return replace(self, gamma=gamma, state=state, trace_renormalised=renormalised)


def _pair_sums(s_eig: np.ndarray, g: np.ndarray, g_deg: np.ndarray):
    """Off-diagonal level-pair sums S (S o G), (S o G^T) S and S (S o G_deg)."""
    return s_eig @ (s_eig * g), (s_eig * g.T) @ s_eig, s_eig @ (s_eig * g_deg)


def _assemble_x(
    probe: ProbeModel,
    corr_b: CorrelationFn,
    beta: float,
    n_u: int,
    tol: Tolerances,
):
    """Shared assembly for X and its analytic beta-derivative."""
    rule = quad_imaginary_time(n_u, beta, corr_b.layer_width)
    u = rule.nodes
    w = rule.weights
    probe_corr = EigenbasisCorrelation(probe.decomp, probe.coupling, beta)
    evals, p, s_eig = probe_corr.evals, probe_corr.populations, probe_corr.coupling_eig

    phi_b, dphi_b = (np.asarray(c, dtype=float) for c in corr_b.value_and_dbeta(u))
    sigma = probe_corr.sigma(u)
    phi_s = p @ sigma  # probe correlator and its beta-derivative as level sums
    dphi_s = probe_corr.dpopulations @ sigma

    # diagonal: sum_j w_j (beta-u_j) C_B [sigma_n - C_S], and its derivative
    wtilde = w * (beta - u) * phi_b
    kern2 = w * (phi_b + (beta - u) * dphi_b)
    centred = sigma - phi_s[None, :]
    x_diag = centred @ wtilde
    dx_diag = centred @ kern2 - float(np.dot(wtilde, dphi_s))

    # off-diagonal via gap-resolved integrals and two matrix products
    gap = evals[:, None] - evals[None, :]  # gap[n, m] = E_n - E_m
    scale = max(float(np.max(np.abs(evals))), float(evals.max() - evals.min()), 1e-300)
    degen = np.abs(gap) < tol.degeneracy_rel * scale
    safe_gap = np.where(degen, 1.0, gap)
    exp_bgap = np.exp(beta * gap)

    g_phi = _kernels.gap_integrals(evals, u, w * phi_b)     # G[a,b] ~ e^{u(E_b-E_a)}
    g_phi_w = _kernels.gap_integrals(evals, u, wtilde)      # with (beta-u) C_B weight
    g_dphi = _kernels.gap_integrals(evals, u, w * dphi_b)
    g_kern2 = _kernels.gap_integrals(evals, u, kern2)

    a1, a2, x_deg = _pair_sums(s_eig, g_phi, g_phi_w)
    x = np.where(degen, x_deg, (exp_bgap * a1 - a2) / safe_gap)
    np.fill_diagonal(x, x_diag)

    a1d, a2d, dx_deg = _pair_sums(s_eig, g_dphi, g_kern2)
    x_dbeta = np.where(degen, dx_deg, (exp_bgap * a1d - a2d) / safe_gap + exp_bgap * a1)
    np.fill_diagonal(x_dbeta, dx_diag)

    return probe_corr, x, x_dbeta, rule


def x_matrix(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> MeanForceExpansion:
    """Second-order state-correction matrix X and its analytic dX/dbeta.

    ``bath`` may be a bath specification or a ready-made correlator.  The
    expansion is derived under a zero-mean environment coupling; a bath whose
    coupling operator has a thermal mean above ``tol.assumption_mean`` is
    refused, because the reduced state then picks up a first-order term that
    this routine cannot represent (see :func:`p1_operator`).
    """
    corr_b = _as_bath_correlation(bath, beta, n_omega or DEFAULT_FREQ_NODES)
    mean_b = getattr(corr_b, "mean", None)
    if mean_b is not None and abs(mean_b) > tol.assumption_mean:
        raise ValueError(
            f"environment coupling has thermal mean {mean_b:.3e}; the second-order "
            "expansion assumes a zero-mean coupling — handle the first-order term "
            "with p1_operator or centre the coupling operator"
        )
    probe_corr, x, dx, rule = _assemble_x(probe, corr_b, beta, n_u, tol)
    weighted = probe_corr.populations[:, None] * x
    drift = float(np.max(np.abs(weighted - weighted.conj().T)))
    return MeanForceExpansion(x, dx, rule, probe_corr, tol, hermiticity_drift=drift)


def x_matrix_fd_dbeta(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> np.ndarray:
    """Finite-difference dX/dbeta for cross-validation of the analytic path.

    Central differences with steps h = tol.fd_step_rel * beta and h/2,
    combined by Richardson extrapolation to fourth order.
    """
    if isinstance(bath, CorrelationFn):
        raise ValueError(
            "finite-difference path needs a bath specification, not a fixed-beta correlator"
        )
    h = tol.fd_step_rel * beta

    def x_at(b: float) -> np.ndarray:
        return x_matrix(probe, bath, b, n_u, n_omega, tol).x

    d1 = (x_at(beta + h) - x_at(beta - h)) / (2.0 * h)
    d2 = (x_at(beta + 0.5 * h) - x_at(beta - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def mfg_second_order(
    probe: ProbeModel,
    bath,
    gamma: float,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> MeanForceExpansion:
    """Assembled second-order reduced state pi (1 + gamma^2 X): the expansion
    of :func:`x_matrix` at one coupling, see
    :meth:`MeanForceExpansion.at_coupling` for its checks."""
    return x_matrix(probe, bath, beta, n_u, n_omega, tol).at_coupling(gamma)


def p1_operator(
    probe: ProbeModel, beta: float, mean_b: float, basis: str = "eigen"
) -> np.ndarray:
    """First-order state correction present when the environment mean is non-zero.

    rho(gamma) = pi + gamma * p1 + O(gamma^2),
    p1 = -<B> pi int_0^beta db1 e^{b1 H} (S - <S>) e^{-b1 H}.

    Returns the matrix in the probe eigenbasis (or the original basis with
    ``basis="original"``).  Identically zero when ``mean_b == 0``.
    """
    corr = EigenbasisCorrelation(probe.decomp, probe.coupling, beta)
    evals, p = corr.evals, corr.populations
    s_bar = corr.coupling_eig - corr.mean * np.eye(evals.size)
    gap = evals[:, None] - evals[None, :]
    small = np.abs(gap) < 1e-300
    tau = np.where(small, beta, np.expm1(beta * np.where(small, 1.0, gap)) / np.where(small, 1.0, gap))
    p1 = -mean_b * (p[:, None] * s_bar * tau)
    if basis == "eigen":
        return p1
    if basis == "original":
        return probe.decomp.from_eigenbasis(p1)
    raise ValueError(f"unknown basis {basis!r}")


@dataclass
class SldExpansion:
    """Logarithmic-derivative expansion L = L0 + gamma^2 A for the inverse
    temperature, in the probe eigenbasis (``alpha`` has the dtype of the
    expansion's ``x``)."""

    beta: float
    evals: np.ndarray
    populations: np.ndarray
    l0_diag: np.ndarray          # zeroth order: <H> - E_n on the diagonal
    alpha: np.ndarray            # second-order coefficient matrix A
    hermiticity_drift: float = 0.0

    def total(self, gamma: float) -> np.ndarray:
        return np.diag(self.l0_diag).astype(complex) + gamma**2 * self.alpha


def sld_second_order(expansion: MeanForceExpansion) -> SldExpansion:
    """Logarithmic derivative of the second-order state with respect to beta.

    Solving (L rho + rho L)/2 = d rho/d beta order by order gives, in the
    probe eigenbasis,

        A_nm = [2 p_n dX_nm + p_n (E_m - E_n) X_nm] / (p_n + p_m),

    whose diagonal is simply dX_nn.  The assembled matrix is Hermitian; it is
    symmetrised and the drift recorded.  Inverse temperature, levels and
    populations are the expansion's own.
    """
    p = expansion.populations
    evals = expansion.evals
    pair = p[:, None] + p[None, :]
    gap_mn = evals[None, :] - evals[:, None]  # (E_m - E_n) indexed [n, m]
    alpha = (2.0 * p[:, None] * expansion.x_dbeta + p[:, None] * gap_mn * expansion.x) / pair
    drift = float(np.max(np.abs(alpha - alpha.conj().T)))
    alpha = 0.5 * (alpha + alpha.conj().T)
    # On the diagonal the solve reduces to A_nn = dX_nn exactly; write it as such
    # so downstream population sums reproduce the derivative without rounding.
    np.fill_diagonal(alpha, np.real(np.diag(expansion.x_dbeta)))
    mean_e = float(np.dot(p, evals))
    return SldExpansion(
        beta=expansion.beta,
        evals=evals,
        populations=p,
        l0_diag=mean_e - evals,
        alpha=alpha,
        hermiticity_drift=drift,
    )
