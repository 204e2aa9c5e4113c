"""Exact small-system reference calculations.

Everything here works directly on the joint probe+environment Hamiltonian by
brute-force diagonalisation: the reduced thermal state is an exact partial
trace, and its temperature derivative is exact too, because only the Gibbs
weights of the fixed joint eigenbasis depend on inverse temperature.  Nothing
in this module touches the series-expansion machinery, so agreement between
the two is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DensityOperator,
    SpectralDecomposition,
    _read_only,
    eigendecompose,
    gibbs_populations,
    qfi_from_sld,
    sld_solve,
)
from .metrology import cfi_energy_general
from .models import DiscreteBath, ProbeModel
from .tolerances import DEFAULT_TOL, Tolerances

MAX_JOINT_DIM = 4096  # brute-force diagonalisation budget


# ----------------------------------------------------------------------------
# joint model and exact reduced states
# ----------------------------------------------------------------------------


@dataclass
class JointModel:
    """Probe and discrete environment combined into one closed system.

    ``decomp`` is diagonalised once, block by block (see
    :func:`_block_eigendecompose`); the reduced state and its beta-derivative
    at the last beta asked are kept, so ``exact_fishers`` and ``exact_mfg`` at
    one beta share them.  A ``gamma`` that is not finite and real raises
    ValueError.
    """

    probe: ProbeModel
    bath: DiscreteBath
    gamma: float
    _reduced: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isrealobj(self.gamma) and np.isfinite(self.gamma)):
            raise ValueError(f"coupling gamma must be finite real, got {self.gamma}")
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
        return _block_eigendecompose(self.hamiltonian)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` of two square matrices as one broadcast product: the
    same elementwise products, so the same bits, without ``np.kron``'s
    general-rank bookkeeping."""
    d = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(d, d)


def _connected_blocks(h: np.ndarray) -> list[np.ndarray]:
    """Index sets, each ascending, of the connected components of the nonzero
    pattern of ``h``, in the order of their smallest index; the components of
    one index go together as one (diagonal) block.

    Labels start as the indices; each pass hooks the root of every edge's
    larger label onto the smaller, then jumps pointers log2(d) times, enough
    for every label to reach its root, so each component ends labelled by its
    smallest index.  An edge whose two ends share a label stays joined and is
    dropped.
    """
    d = h.shape[0]
    rows, cols = np.divmod(np.flatnonzero(h != 0), d)
    label = np.arange(d)
    jumps = range((d - 1).bit_length())
    while True:
        a, b = label[rows], label[cols]
        cross = a != b
        if not cross.any():
            break
        rows, cols, a, b = rows[cross], cols[cross], a[cross], b[cross]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        for _ in jumps:
            label = label[label]
    single = np.bincount(label, minlength=d)[label] == 1
    if single.any():
        label = np.where(single, np.argmax(single), label)
    index = np.argsort(label, kind="stable")
    return np.split(index, np.flatnonzero(np.diff(label[index])) + 1)


def _block_eigendecompose(h: np.ndarray) -> SpectralDecomposition:
    """``eigendecompose(h)`` one connected block of ``h`` at a time.

    A coupling that conserves a quantum number (an x (x) x coupling conserves
    the total parity) leaves the joint Hamiltonian block-diagonal up to a
    permutation, and LAPACK's cubic cost falls with the block size.  Each
    block goes through :func:`eigendecompose`, with all its checks; the
    eigenvalues are merged by a stable sort, and each block's eigenvectors
    are scattered into one d x d matrix that is exactly zero outside the
    block.  A matrix that is one block, or diagonal, makes the one call on
    the whole matrix.
    """
    blocks = _connected_blocks(h)
    if len(blocks) == 1:
        return eigendecompose(h)
    parts = [eigendecompose(h.take(ix, axis=0).take(ix, axis=1)) for ix in blocks]
    evals = np.concatenate([part.evals for part in parts])
    order = np.argsort(evals, kind="stable")
    evecs = np.zeros(h.shape, dtype=np.result_type(*(part.evecs for part in parts)))
    start = 0
    for ix, part in zip(blocks, parts):
        evecs[ix, start:start + ix.size] = part.evecs
        start += ix.size
    return SpectralDecomposition(evals=evals[order], evecs=evecs.take(order, axis=1))


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
    """Reduced state and its exact inverse-temperature derivative, read-only;
    the pair of the last beta asked is kept on the joint.

    The joint eigenvectors do not depend on beta, so only the Gibbs weights
    move: d p_k / d beta = p_k (<H> - E_k).  Energies are measured from the
    ground level, which leaves the weights unchanged and keeps <H> - E_k free
    of cancellation against a large spectral offset.
    """
    kept = joint._reduced
    if kept is None or kept[0] != beta:
        e = joint.decomp.evals - joint.decomp.evals.min()
        p = gibbs_populations(e, beta)
        dp = p * (np.dot(p, e) - e)
        kept = joint._reduced = (beta, *_read_only(_reduced_weighted(joint, p),
                                                   _reduced_weighted(joint, dp)))
    return kept[1], kept[2]


def exact_mfg(joint: JointModel, beta: float, tol: Tolerances = DEFAULT_TOL) -> DensityOperator:
    """Exact reduced thermal state tr_env exp(-beta H)/Z of the joint model;
    the one ``exact_fishers`` left on the joint when it was asked at this beta
    (the same populations, so the same bits)."""
    kept = joint._reduced
    if kept is not None and kept[0] == beta:
        return DensityOperator(kept[1], tol)
    return DensityOperator(_reduced_weighted(joint, gibbs_populations(joint.decomp.evals, beta)), tol)


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) sum of absolute eigenvalues of the Hermitian difference a - b."""
    diff = a.matrix - b.matrix
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ----------------------------------------------------------------------------
# exact Fisher informations
# ----------------------------------------------------------------------------


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
