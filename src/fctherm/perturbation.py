"""Second-order coupling corrections to the probe's reduced thermal state.

For a probe coupled to a thermal environment through gamma * S (x) B with a
zero-mean B, the reduced state is

    rho(gamma) = pi + gamma^2 pi X + O(gamma^4),

with pi the bare thermal state.  In the probe eigenbasis (energies E_n,
populations p_n, coupling matrix S_nk):

    X_nn     = int_0^beta du (beta - u) C_B(u) [ sigma_n(u) - C_S(u) ]
    X_nm     = (1/(E_n - E_m)) sum_k S_nk S_km
               int_0^beta du C_B(u) [ e^{u (E_m - E_k)} e^{beta (E_n - E_m)}
                                      - e^{u (E_n - E_k)} ],  n != m

where sigma_n(u) = sum_k |S_nk|^2 e^{-u (E_k - E_n)} and C_S = sum_n p_n
sigma_n is the probe correlator.  The expansion stores the state correction
pi X itself, (pi X)_nm = p_n X_nm, and pi dX/dbeta beside it: every reader
needs the correction with its populations, and since p_n e^{beta (E_n - E_m)}
= p_m no factor e^{+beta gap} is ever formed.  The probe's level data
(rotated coupling, populations, sigma_n) come from one EigenbasisCorrelation
per point, and C_B from one bath correlator built from a bath specification,
never passed in; the expansion carries both.  x_matrix returns the
per-point setup (the correlators, the u-rule, the diagonal and the node
weights of the gap integrals) as the expansion; its level-pair sums are
evaluated only when read, on the block of the lowest k levels
(``MeanForceExpansion.block``): ``pi_x`` reads k = d, snr_bound k = 2, and
I2, which reads only the diagonal, no block at all.  A block's gap-integral
tables are d x k, the columns its pair sums read.

What does not depend on the coupling is built once per beta and shared by
every point there: the Gibbs data and pair factors of the probe levels
(``EigenbasisCorrelation.thermal``) and the bath correlator's node weights
(``rule_terms``), so a theta or gamma sweep pays per point only for what its
coupling changes.

When the environment mean is non-zero there is also a first-order term,
handled by :func:`p1_operator`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import CouplingTooStrongError, NonzeroMeanError
from .linalg import DensityOperator, QuadratureRule, quad_imaginary_time
from .models import (
    DEFAULT_FREQ_NODES,
    CorrelationFn,
    EigenbasisCorrelation,
    ProbeModel,
    bath_correlation,
    probe_correlation,
)
from .tolerances import DEFAULT_TOL, Tolerances

DEFAULT_TIME_NODES = 64  # imaginary-time rule size


@dataclass
class MeanForceExpansion:
    """Second-order reduced-state expansion in the probe eigenbasis.

    The record is the per-point setup every block of the expansion shares.
    ``probe_corr`` is the probe correlator the expansion was assembled from;
    it supplies the inverse temperature, the levels, the populations and the
    basis the state is rotated back with.  ``bath_corr`` is the bath
    correlator C_B it was assembled against, built for the same beta, and
    ``rule`` the u-rule.  ``x_diag`` and ``dx_diag`` are the diagonal X_nn
    and dX_nn/dbeta on every level.  ``terms`` is the bath correlator's
    ``rule_terms(rule).expansion`` record, shared by every point at its beta:
    the node weights of the four gap integrals the off-diagonal pair sums
    read (w C_B, w (beta - u) C_B, w dC_B/dbeta, w (beta - u) dC_B/dbeta) and
    the diagonal's kernel.  ``tol`` holds the thresholds the expansion was
    built under, which :meth:`at_coupling` applies too.

    :meth:`block` evaluates the level-pair sums on the lowest k levels.
    ``pi_x`` is the state correction pi X on every level, exactly Hermitian,
    and ``pi_dx`` is pi dX/dbeta (not d(pi X)/dbeta, which adds
    (dpi/dbeta) X); both are float64 when the probe's eigenvectors and
    coupling are real (every built-in probe), complex128 otherwise.  They are
    one all-levels block, formed on the first read and kept; the copies
    :meth:`at_coupling` returns share it.
    """

    rule: QuadratureRule
    probe_corr: EigenbasisCorrelation
    bath_corr: CorrelationFn
    x_diag: np.ndarray               # X_nn, every level
    dx_diag: np.ndarray              # dX_nn/dbeta, every level
    terms: tuple[np.ndarray, ...]    # the bath's node terms on ``rule``
    tol: Tolerances = DEFAULT_TOL
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

    @cached_property
    def _full(self) -> tuple[np.ndarray, np.ndarray]:
        return self.block(self.evals.size)

    @property
    def pi_x(self) -> np.ndarray:
        return self._full[0]

    @property
    def pi_dx(self) -> np.ndarray:
        return self._full[1]

    def block(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(pi X, pi dX/dbeta) on the block of the lowest k <= d levels.  The
        four gap tables are d x k, G[a, b] for b < k.  Entry for entry the
        block is the full matrices' own arithmetic; only the tables'
        (d x n_u)(n_u x k) products and the pair sums' (k x d)(d x k)
        products may round apart from the full products' columns and block,
        and at k = d they are those products."""
        corr = self.probe_corr
        s_eig, e, u = corr.coupling_eig, corr.evals, self.rule.nodes
        # G[a, b] ~ e^{u (E_b - E_a)}, b < k; all four are made whether or not a
        # near pair reads the (beta - u)-weighted two
        c_phi, c_phi_w, c_dphi, c_dphi_w, _ = self.terms
        g_phi = _kernels.gap_integrals(e, u, c_phi, k)
        g_phi_w = _kernels.gap_integrals(e, u, c_phi_w, k)
        g_dphi = _kernels.gap_integrals(e, u, c_dphi, k)
        g_dphi_w = _kernels.gap_integrals(e, u, c_dphi_w, k)
        p = corr.populations[:k]

        # off-diagonal via gap-resolved integrals and matrix products; the
        # difference form (p_m a1 - p_n a2)/D cancels two sums equal to O(beta D),
        # so near pairs take the midpoint form, exact to O((beta D)^2) (README);
        # p_n e^{beta gap} = lo * t, so pi X is Hermitian bit for bit
        near, safe_gap, lo, t = corr.thermal.pair_factors(k)

        # G is real and S Hermitian, so a2 = (S o G^T) S = (S (S o G))^dag (README)
        a1, a1d = _pair_sum(s_eig, g_phi, k), _pair_sum(s_eig, g_dphi, k)
        pi_x = lo * ((t * a1 - t.T * a1.conj().T) / safe_gap)
        pi_dx = lo * ((t * a1d - t.T * a1d.conj().T) / safe_gap + t * a1)
        if near.any():
            root_pp = np.sqrt(np.multiply.outer(p, p))  # p_n e^{beta gap / 2}
            pi_x = np.where(near, root_pp * _midpoint(s_eig, g_phi_w, k), pi_x)
            pi_dx = np.where(near, root_pp * _midpoint(s_eig, g_dphi_w, k) + lo * (t * a1),
                             pi_dx)
        np.fill_diagonal(pi_x, p * self.x_diag[:k])
        np.fill_diagonal(pi_dx, p * self.dx_diag[:k])
        return pi_x, pi_dx

    def at_coupling(self, gamma: float) -> MeanForceExpansion:
        """A copy carrying the assembled state pi + gamma^2 pi X at ``gamma``.

        pi X does not depend on the coupling, so one expansion serves every
        gamma; it is never modified here, and the copy shares it.  It is
        Hermitian bit for bit, so the state needs no symmetrising in the
        eigenbasis; the rotation back to the original basis is symmetrised,
        as BLAS need not round U A U^dag symmetrically.  Raises
        :class:`CouplingTooStrongError` when the state has an eigenvalue below
        ``tol.psd_mean_force`` (the expansion left its regime).
        """
        tol = self.tol
        rho_eig = np.diag(self.populations) + gamma**2 * self.pi_x
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
        # a shallow copy keeps the formed block; dataclasses.replace would not
        out = copy.copy(self)
        out.gamma, out.state, out.trace_renormalised = gamma, state, renormalised
        return out


def _pair_sum(s_eig: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Level-pair sum S (S o G) on the lowest k levels, [n, m] = sum_l S_nl
    S_lm G_lm for n, m < k, with G the d x k gap table: a (k x d)(d x k)
    product, the full d x d one at k = d."""
    return s_eig[:k] @ (s_eig[:, :k] * g)


def _midpoint(s_eig: np.ndarray, g: np.ndarray, k: int) -> np.ndarray:
    """Level-pair sum (1/2)[S (S o G) + (S o G^T) S] on the lowest k levels:
    both end levels averaged.  With G real and S Hermitian the second product
    is the adjoint of the first, so this is (1/2)(M + M^dag) with
    M = S (S o G)."""
    m = _pair_sum(s_eig, g, k)
    return 0.5 * (m + m.conj().T)


def x_matrix(
    probe: ProbeModel,
    bath,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> MeanForceExpansion:
    """The second-order expansion at ``beta``: its per-point setup, from which
    pi X and pi times the analytic dX/dbeta are formed when first read.

    ``bath`` is a bath specification (``ContinuumBath`` or ``DiscreteBath``);
    its correlator is built here at ``beta`` with ``n_omega`` frequency nodes
    and carried as the expansion's ``bath_corr``.  The expansion is derived
    under a zero-mean environment coupling; a bath whose coupling operator has
    a thermal mean above ``tol.assumption_mean`` is refused with
    :class:`NonzeroMeanError`, because the reduced state then picks up a
    first-order term that this routine cannot represent (see
    :func:`p1_operator`).  This is the one place the assumption is checked.
    No gap table is formed here: the diagonal needs none, and
    :meth:`MeanForceExpansion.block` forms the d x k tables of its block.
    """
    bath_corr = bath_correlation(bath, beta, n_omega)
    if abs(bath_corr.mean) > tol.assumption_mean:
        raise NonzeroMeanError(
            f"environment coupling has thermal mean {bath_corr.mean:.3e}; the second-order "
            "expansion assumes a zero-mean coupling — handle the first-order term "
            "with p1_operator or centre the coupling operator"
        )
    rule = quad_imaginary_time(n_u, beta, bath_corr.layer_width)
    terms = bath_corr.rule_terms(rule).expansion
    _, c_phi_w, _, _, kern = terms
    probe_corr = probe_correlation(probe, beta)
    sigma = probe_corr.sigma(rule.nodes)
    # probe correlator and its beta-derivative as level sums
    phi_s = probe_corr.populations @ sigma
    dphi_s = probe_corr.dpopulations @ sigma

    # diagonal: sum_j w_j (beta-u_j) C_B [sigma_n - C_S], and its derivative
    centred = sigma - phi_s[None, :]
    x_diag = centred @ c_phi_w
    dx_diag = centred @ kern - float(np.dot(c_phi_w, dphi_s))
    return MeanForceExpansion(rule, probe_corr, bath_corr, x_diag, dx_diag, terms, tol)


def mfg_second_order(
    probe: ProbeModel,
    bath,
    gamma: float,
    beta: float,
    n_u: int = DEFAULT_TIME_NODES,
    n_omega: int = DEFAULT_FREQ_NODES,
    tol: Tolerances = DEFAULT_TOL,
) -> MeanForceExpansion:
    """Assembled second-order reduced state pi + gamma^2 pi X: the expansion
    of :func:`x_matrix` at one coupling, see
    :meth:`MeanForceExpansion.at_coupling` for its checks."""
    return x_matrix(probe, bath, beta, n_u, n_omega, tol).at_coupling(gamma)


def p1_operator(probe: ProbeModel, beta: float, mean_b: float) -> np.ndarray:
    """First-order state correction present when the environment mean is non-zero.

    rho(gamma) = pi + gamma * p1 + O(gamma^2),
    p1 = -<B> pi int_0^beta db1 e^{b1 H} (S - <S>) e^{-b1 H}.

    Returns the matrix in the probe eigenbasis; ``probe.decomp.from_eigenbasis``
    rotates it back.  Identically zero when ``mean_b == 0``.
    """
    corr = probe_correlation(probe, beta)
    evals, p = corr.evals, corr.populations
    s_bar = corr.coupling_eig - corr.mean * np.eye(evals.size)
    # p_n expm1(beta gap)/gap, gap = E_n - E_m, is p_lo (1 - e^{-beta |gap|})/|gap|
    # with p_lo = max(p_n, p_m) the pair's lower level (p_n e^{beta gap} = p_m):
    # no exponent is positive, so a cold, wide probe does not overflow
    width = np.abs(evals[:, None] - evals[None, :])
    small = width < 1e-300
    safe = np.where(small, 1.0, width)
    tau = np.where(small, beta, -np.expm1(-beta * safe) / safe)
    return -mean_b * (np.maximum.outer(p, p) * s_bar * tau)


def sld_second_order(expansion: MeanForceExpansion) -> np.ndarray:
    """Second-order coefficient A of the logarithmic derivative with respect
    to beta, L = L0 + gamma^2 A, in the probe eigenbasis.

    Solving (L rho + rho L)/2 = d rho/d beta order by order gives the
    zeroth order L0 = diag(<H> - E_n) and

        A_nm = [2 (pi dX)_nm + (E_m - E_n) (pi X)_nm] / (p_n + p_m),

    whose diagonal is dX_nn = (pi dX)_nn / p_n.  The matrix is symmetrised,
    A = (M + M^dag)/2, and has the dtype of the expansion's ``pi_x``.
    Inverse temperature, levels and populations are the expansion's own.
    """
    return _sld(expansion.populations, expansion.evals, expansion.pi_x, expansion.pi_dx)


def _sld(p: np.ndarray, evals: np.ndarray, pi_x: np.ndarray, pi_dx: np.ndarray) -> np.ndarray:
    """A from pi X and pi dX/dbeta on any block of levels with populations
    ``p`` and energies ``evals`` (see :func:`sld_second_order`)."""
    pair = p[:, None] + p[None, :]
    gap_mn = evals[None, :] - evals[:, None]  # (E_m - E_n) indexed [n, m]
    alpha = (2.0 * pi_dx + gap_mn * pi_x) / pair
    return 0.5 * (alpha + alpha.conj().T)
