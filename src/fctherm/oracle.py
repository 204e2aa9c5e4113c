"""Exact small-system reference calculations.

Everything here works directly on the joint probe+environment Hamiltonian by
brute-force diagonalisation: the reduced thermal state is an exact partial
trace, and its temperature derivative is exact too, because only the Gibbs
weights of the fixed joint eigenbasis depend on inverse temperature.  Nothing
in this module touches the series-expansion machinery, so agreement between
the two is a genuine cross-check rather than a tautology.

The module also ships two exactly solvable two-qubit models with non-zero
environment mean, together with evaluators for their closed-form expansion
coefficients.  They exercise the first-order effects that the zero-mean
expansion deliberately refuses to handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .linalg import (
    DensityOperator,
    SpectralDecomposition,
    eigendecompose,
    gibbs_populations,
    qfi_from_sld,
    sld_solve,
)
from .metrology import cfi_energy_general
from .models import SIGMA_X, SIGMA_Z, DiscreteBath, ProbeModel, probe_custom
from .tolerances import DEFAULT_TOL, Tolerances

MAX_JOINT_DIM = 4096  # brute-force diagonalisation budget


# ----------------------------------------------------------------------------
# joint model and exact reduced states
# ----------------------------------------------------------------------------


@dataclass
class JointModel:
    """Probe and discrete environment combined into one closed system."""

    probe: ProbeModel
    bath: DiscreteBath
    gamma: float

    def __post_init__(self):
        d = self.probe.dim * self.bath.hamiltonian.shape[0]
        if d > MAX_JOINT_DIM:
            raise ValueError(
                f"joint dimension {d} exceeds the brute-force limit {MAX_JOINT_DIM}"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.probe.dim, self.bath.hamiltonian.shape[0]

    @property
    def hamiltonian(self) -> np.ndarray:
        ds, db = self.dims
        return (
            _kron(self.probe.hamiltonian, np.eye(db))
            + _kron(np.eye(ds), self.bath.hamiltonian)
            + self.gamma * _kron(self.probe.coupling, self.bath.coupling)
        )

    @cached_property
    def decomp(self) -> SpectralDecomposition:
        return eigendecompose(self.hamiltonian)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two square matrices as one broadcast product: the
    same elementwise products, so the same bits, without ``np.kron``'s
    general-rank bookkeeping."""
    d = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d, d)


def partial_trace_bath(matrix: np.ndarray, dim_probe: int, dim_bath: int) -> np.ndarray:
    """Trace out the second tensor factor of a (dS*dB) x (dS*dB) matrix."""
    r = np.asarray(matrix).reshape(dim_probe, dim_bath, dim_probe, dim_bath)
    return np.einsum("ibjb->ij", r)


def _reduced_weighted(joint: JointModel, weights: np.ndarray) -> np.ndarray:
    """tr_B sum_k w_k |v_k><v_k| over the joint eigenvectors (raw matrix, original basis).

    Never forms a joint operator: row i of the eigenvectors reshaped to
    (d_S, d_B * d) lists <i, b|v_k> over (b, k), so one (d_S x d_B d) product
    contracts the bath index and the sum over k.
    """
    dec = joint.decomp
    ds, db = joint.dims
    v = dec.evecs.reshape(ds, db * dec.dim)
    vw = (dec.evecs * weights).reshape(ds, db * dec.dim)
    red = vw @ v.conj().T
    return 0.5 * (red + red.conj().T)


def _reduced_thermal_and_dbeta(joint: JointModel, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Reduced state and its exact inverse-temperature derivative.

    The joint eigenvectors do not depend on beta, so only the Gibbs weights
    move: d p_k / d beta = p_k (<H> - E_k).  Energies are measured from the
    ground level, which leaves the weights unchanged and keeps <H> - E_k free
    of cancellation against a large spectral offset.
    """
    e = joint.decomp.evals - joint.decomp.evals.min()
    p = gibbs_populations(e, beta)
    dp = p * (np.dot(p, e) - e)
    return _reduced_weighted(joint, p), _reduced_weighted(joint, dp)


def exact_mfg(joint: JointModel, beta: float, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Exact reduced thermal state tr_env exp(-beta H)/Z of the joint model."""
    return DensityOperator(_reduced_weighted(joint, gibbs_populations(joint.decomp.evals, beta)), tol)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) sum of absolute eigenvalues of the Hermitian difference a - b."""
    diff = a.matrix - b.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ----------------------------------------------------------------------------
# exact Fisher informations
# ----------------------------------------------------------------------------


def exact_sld(joint: JointModel, beta: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative of the exact reduced state (original basis)."""
    rho, drho = _reduced_thermal_and_dbeta(joint, beta)
    return sld_solve(rho, drho, tol)


def exact_fishers(
    joint: JointModel, beta: float, tol: Tolerances = DEFAULT_TOL
) -> tuple[float, float]:
    """(F, I): quantum Fisher information of the exact reduced state, and the
    classical Fisher information of probe-energy measurements on it.

    Both use the exact inverse-temperature derivative of the reduced state,
    tr_B sum_k p_k (<H> - E_k) |v_k><v_k| over the joint eigenpairs, so no
    state is evaluated at a shifted beta.
    """
    rho, drho = _reduced_thermal_and_dbeta(joint, beta)
    sld = sld_solve(rho, drho, tol)
    return qfi_from_sld(rho, sld), cfi_energy_general(joint.probe.decomp, rho, drho)


# ----------------------------------------------------------------------------
# order-of-scaling fits
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderFit:
    """Log-log least-squares fit of deviation magnitudes against coupling."""

    kept: np.ndarray              # boolean mask of points above the noise floor
    slope: float
    intercept: float              # log10 of the leading coefficient
    r_squared: float
    indistinguishable: bool       # too few resolvable points to fit an order


def order_fit(
    gammas,
    deviations,
    scale: float = 1.0,
    tol: Tolerances = DEFAULT_TOL,
) -> OrderFit:
    """Fit |deviation| ~ c * gamma^k on a log-log grid of >= 5 couplings.

    Points below ``tol.order_floor_factor * machine_eps * scale`` are treated
    as numerical zeros and discarded.  If fewer than three points survive the
    result is flagged ``indistinguishable`` (slope and intercept are NaN);
    that is a report, not an error - a deviation that never rises above the
    floor is how an identically-vanishing difference shows up.  A NaN or
    infinite coupling or deviation raises ValueError: it would otherwise be
    dropped as if below the floor, or poison the fit.
    """
    g = np.asarray(gammas, dtype=float)
    d = np.abs(np.asarray(deviations, dtype=float))
    if g.size < 5:
        raise ValueError("order fits need at least five coupling values")
    if g.size != d.size:
        raise ValueError("gammas and deviations must have equal length")
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(d))):
        raise ValueError("couplings and deviations must be finite")
    if np.any(g <= 0):
        raise ValueError("couplings must be positive")
    floor = tol.order_floor_factor * np.finfo(float).eps * scale
    kept = d > floor
    if int(kept.sum()) < 3:
        return OrderFit(
            kept=kept,
            slope=float("nan"),
            intercept=float("nan"),
            r_squared=float("nan"),
            indistinguishable=True,
        )
    lx = np.log10(g[kept])
    ly = np.log10(d[kept])
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return OrderFit(
        kept=kept,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        indistinguishable=False,
    )


# ----------------------------------------------------------------------------
# exactly solvable two-qubit reference models
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceModel:
    """A two-qubit probe+environment model with closed-form coefficients.

    ``coeffs(beta)`` returns the expansion coefficients of the reduced state
    (``state_linear``, ``state_quadratic``), of the logarithmic derivative
    (``sld_linear``), and of the Fisher quantities (``qfi_linear`` for the
    dephasing model, ``fi_gap_quadratic`` for the dissipative one), as
    functions of inverse temperature.  Each is derived by hand from the
    two-qubit model; the acceptance suite checks them against the exact
    reduced state extracted by coupling refinement.
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


def _dissipative_coeffs(beta: float) -> dict:
    # To first order the reduced state is the Gibbs state of sigma_z + gamma m
    # sigma_x, m = <pi_up> = (1 - t)/2, with Bloch vector (-gamma t m, 0, -t).
    # The qubit SLD l0 + l.sigma solves l = d_beta r - l0 r with the
    # zeroth-order l0 = <H_S> = -t, so its x component picks up the cross
    # term -l0 r_x = -gamma t^2 m besides d_beta r_x.  The Fisher gap is the
    # square of that slope: F - I = sld_linear^2 gamma^2 + O(gamma^4).
    t = math.tanh(beta)
    sech = 1.0 / math.cosh(beta)
    sech2 = sech * sech
    sld = 0.5 * sech2 * (2.0 * t - 1.0) + 0.5 * t * t * (t - 1.0)
    return {
        "state_linear": 0.25 * t * (t - 1.0),
        "state_quadratic": 0.125 * sech * (t - 1.0) * (beta * sech - math.sinh(beta)),
        "sld_linear": sld,
        "fi_gap_quadratic": sld * sld,
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
        probe=probe_custom(SIGMA_Z, SIGMA_Z, dim_exponent=0.0, kind="qubit-z"),
        bath=DiscreteBath(SIGMA_Z, SIGMA_Z),
        coeffs=_dephasing_coeffs,
        coherence_axis="z",
    )
    dissipative = ReferenceModel(
        name="dissipative",
        probe=probe_custom(SIGMA_Z, SIGMA_X, dim_exponent=0.0, kind="qubit-x"),
        bath=DiscreteBath(SIGMA_Z, pi_up),
        coeffs=_dissipative_coeffs,
        coherence_axis="x",
    )
    return {"dephasing": dephasing, "dissipative": dissipative}
