"""Reference calculations that only the tests read.

Two exactly solvable two-qubit models with a non-zero environment mean, with
their closed-form expansion coefficients, exercise the first-order effects
that the zero-mean expansion refuses to handle (acceptance criteria 1 and 3).
The library's oracle forms the exact reduced state straight from the joint
eigenvectors and reports Fisher informations; the acceptance tests also read
the exact logarithmic derivative, and two oracle tests check the
eigenvector contraction against a plain partial trace of the full state.
The zeroth order of the expanded logarithmic derivative, <H> - E_n, is
checked against the one of the bare Gibbs state, and the analytic
beta-derivative of pi X against finite differences.  The continuum bath
correlator's tables and the harmonic-mode correlator are checked bit for bit
against the forms that pass every exponent to np.exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from fctherm import (
    DEFAULT_TOL,
    ContinuumBathCorrelation,
    DiscreteBath,
    JointModel,
    ProbeModel,
    Tolerances,
    gibbs_state,
    probe_custom,
    sld_solve,
    spectral_density,
    x_matrix,
)
from fctherm.config import DEFAULT_SCALING
from fctherm.models import SIGMA_X, SIGMA_Z
from fctherm.oracle import _reduced_thermal_and_dbeta


def random_hermitian(d: int, seed: int) -> np.ndarray:
    """A d x d complex Hermitian matrix with Gaussian entries, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def gamma_grid(lo: float = DEFAULT_SCALING.min, hi: float = DEFAULT_SCALING.max) -> np.ndarray:
    """Log-spaced couplings for an order fit: the default scaling window, or
    as many points between ``lo`` and ``hi``."""
    return replace(DEFAULT_SCALING, min=lo, max=hi).points()


# ---------------------------------------------------------------------------
# exactly solvable two-qubit reference models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceModel:
    """A two-qubit probe+environment model with closed-form coefficients.

    ``coeffs(beta)`` returns the expansion coefficients of the reduced state
    (``state_linear``, ``state_quadratic``), of the logarithmic derivative
    (``sld_linear``), and of the Fisher quantities (``qfi_linear`` for the
    dephasing model, ``fi_gap_quadratic`` for the dissipative one), as
    functions of inverse temperature.  Each is derived by hand from the
    two-qubit model (README, "Derivations behind criteria 1, 3 and 7").
    """

    name: str
    probe: ProbeModel
    bath: DiscreteBath
    coeffs: Callable[[float], dict]
    coherence_axis: str  # Pauli component carrying the first-order state term

    def joint(self, gamma: float) -> JointModel:
        return JointModel(self.probe, self.bath, gamma)


def _dephasing_coeffs(beta: float) -> dict:
    t = math.tanh(beta)
    sech2 = 1.0 - t * t
    return {
        "state_linear": 0.5 * beta * sech2 * t,
        "state_quadratic": 0.5 * beta * beta * sech2 * t**3,
        "sld_linear": 1.0 + t + sech2 * (beta + 2.0 * beta * t - 1.0),
        "qfi_linear": sech2 * sech2 * (beta * (math.cosh(2 * beta) - 3.0) - math.sinh(2 * beta)),
        "env_mean": -t,
    }


def dissipative_sld_slope(beta: float) -> float:
    """Linear SLD coefficient of the dissipative model.

    To first order the reduced state is the Gibbs state of sigma_z + gamma m
    sigma_x, m = <pi_up> = (1 - t)/2, with Bloch vector r = (-gamma t m, 0, -t),
    t = tanh beta.  The qubit SLD l0 + l.sigma solves l = d_beta r - l0 r with
    the zeroth-order l0 = <H_S> = -t, so its x component picks up the cross
    term -l0 r_x = -gamma t^2 m besides d_beta r_x.  The Fisher gap is the
    square of this slope: F - I = slope^2 gamma^2 + O(gamma^4).
    """
    t = math.tanh(beta)
    return 0.5 * (1.0 - t * t) * (2.0 * t - 1.0) + 0.5 * t * t * (t - 1.0)


def _dissipative_coeffs(beta: float) -> dict:
    t = math.tanh(beta)
    sech = 1.0 / math.cosh(beta)
    slope = dissipative_sld_slope(beta)
    return {
        "state_linear": 0.25 * t * (t - 1.0),
        "state_quadratic": 0.125 * sech * (t - 1.0) * (beta * sech - math.sinh(beta)),
        "sld_linear": slope,
        "fi_gap_quadratic": slope * slope,
        "env_mean": 0.5 * (1.0 - t),
    }


def reference_two_qubit_models() -> dict[str, ReferenceModel]:
    """The two exactly solvable models with a non-zero environment mean.

    * ``dephasing``: both operators are sigma_z, so the interaction commutes
      with the full Hamiltonian; the reduced state stays diagonal and energy
      measurements are optimal at every order.
    * ``dissipative``: the probe couples through sigma_x and the environment
      through the projector onto its upper level.  This orientation is the
      one whose reduced state matches the tabulated closed forms - it
      acquires first-order coherences, while the transposed orientation
      (probe projector, environment sigma_x) keeps the joint Hamiltonian
      block-diagonal over probe levels and so can never generate them.
    """
    pi_up = np.diag([1.0, 0.0])
    dephasing = ReferenceModel(
        name="dephasing",
        probe=probe_custom(SIGMA_Z, SIGMA_Z, dim_exponent=0.0),
        bath=DiscreteBath(SIGMA_Z, SIGMA_Z),
        coeffs=_dephasing_coeffs,
        coherence_axis="z",
    )
    dissipative = ReferenceModel(
        name="dissipative",
        probe=probe_custom(SIGMA_Z, SIGMA_X, dim_exponent=0.0),
        bath=DiscreteBath(SIGMA_Z, pi_up),
        coeffs=_dissipative_coeffs,
        coherence_axis="x",
    )
    return {"dephasing": dephasing, "dissipative": dissipative}


# ---------------------------------------------------------------------------
# exact and plain-form references for the library's own routes
# ---------------------------------------------------------------------------


def partial_trace_bath(matrix: np.ndarray, dim_probe: int, dim_bath: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dS*dB) x (dS*dB) matrix."""
    r = np.asarray(matrix).reshape(dim_probe, dim_bath, dim_probe, dim_bath)
    return np.einsum("ibjb->ij", r)


def exact_sld(joint: JointModel, beta: float) -> np.ndarray:
    """Symmetric logarithmic derivative of the exact reduced state (original basis)."""
    return sld_solve(*_reduced_thermal_and_dbeta(joint, beta))


def bare_sld(probe: ProbeModel, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Logarithmic derivative of the bare Gibbs state pi in the probe
    eigenbasis, from ``sld_solve`` on pi and d pi/d beta = -(H - <H>) pi
    (H and pi commute), with the mask of its support: ``sld_solve`` sets the
    pairs whose populations sum below ``sld_support`` to zero."""
    rho = gibbs_state(probe.decomp, beta).matrix
    h = probe.hamiltonian
    drho = -(h - np.real(np.trace(h @ rho)) * np.eye(probe.dim)) @ rho
    sld = probe.decomp.to_eigenbasis(sld_solve(rho, 0.5 * (drho + drho.conj().T)))
    p = np.real(np.diag(probe.decomp.to_eigenbasis(rho)))
    return sld, np.add.outer(p, p) >= DEFAULT_TOL.sld_support


def x_matrix_fd_dbeta(probe: ProbeModel, bath, beta: float,
                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Finite-difference d(pi X)/dbeta at x_matrix's default rule sizes, where
    it equals pi_dx - (E_n - <H>) pi_x row by row.

    Central differences with steps h = tol.fd_step_rel * beta and h/2,
    combined by Richardson extrapolation to fourth order.
    """
    h = tol.fd_step_rel * beta

    def x_at(b: float) -> np.ndarray:
        return x_matrix(probe, bath, b, tol=tol).pi_x

    d1 = (x_at(beta + h) - x_at(beta - h)) / (2.0 * h)
    d2 = (x_at(beta + 0.5 * h) - x_at(beta - 0.5 * h)) / h
    return (4.0 * d2 - d1) / 3.0


def continuum_bath_rows(corr: ContinuumBathCorrelation, s) -> np.ndarray:
    """The table G = E W of a continuum bath correlator on the rows ``s``,
    with E[j, k] = e^{-s_j w_k} and W = [v, d e^{-beta w}, d] its value and
    dbeta frequency weights, and every exponent, however negative, passed
    to np.exp."""
    w, beta = corr.rule.nodes, corr.beta
    jw = spectral_density(corr.bath, w) * corr.rule.weights / np.pi
    em = np.exp(-beta * w)
    v, d = jw / (1.0 - em), jw * w / (1.0 - em) ** 2
    return np.exp(-np.multiply.outer(s, w)) @ np.stack((v, d * em, d), axis=1)


def continuum_bath_tables(corr: ContinuumBathCorrelation, u) -> tuple:
    """``value`` and ``dbeta`` of a continuum bath correlator at ``u``, from
    the rows u and beta - u of :func:`continuum_bath_rows`:
    value = G(u, 0) + G(beta - u, 0), dbeta = -(G(u, 1) + G(beta - u, 2))."""
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    m = flat.size
    g = continuum_bath_rows(corr, np.concatenate((flat, corr.beta - flat)))
    val = (g[:m, 0] + g[m:, 0]).reshape(u.shape)
    dval = -(g[:m, 1] + g[m:, 2]).reshape(u.shape)
    return (val, dval) if u.ndim else (float(val), float(dval))


def plain_decay(x) -> np.ndarray:
    """e^x with every exponent, however negative, passed to np.exp: the
    library's ``models._decay`` without its cut below -700."""
    return np.exp(x)
