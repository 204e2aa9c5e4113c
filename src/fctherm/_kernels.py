"""Hot numerical kernels, each a single BLAS matrix product.

Two level-pair sums dominate the run time of the expansion machinery:

* gap-resolved imaginary-time integrals  G[a, b] = sum_j c_j exp(u_j (E_b - E_a)),
* eigenbasis correlation sums  sigma[n, j] = sum_k |S_nk|^2 exp(-u_j (E_k - E_n)).

Both factor into exponentials of one level index times one node, so each is
one GEMM between two node x level (or level x node) exponential tables.

The tables depend on the levels and the nodes alone, not on the coefficients
or the coupling weights.  One point's expansion (``perturbation.x_matrix``,
which snr_bound calls) asks one sigma_nodes, and each level-pair block it
forms (``MeanForceExpansion.block``) four gap_integrals, on the same
(levels, u-rule); snr_bound's integral route and its <S^2> ask three more
sigma_nodes.  A block of the lowest k levels reads only the leading k
columns of G, so gap_integrals takes ``k`` and forms a (d x n_u)(n_u x k)
product on a column slice of the kept table: d x 2 for snr_bound, the full
d x d for ``pi_x``.  Each
kernel's table pair is therefore an ``lru_cache`` of ``CACHE_SIZE`` entries
keyed on the bytes of the 1-D float64 levels and nodes, and read-only; each
call still does its own coefficient product and GEMM, and its result is byte
for byte what building the tables afresh gives.

The module also keeps the cyclic Jacobi eigensolver that LAPACK replaced; the
library no longer calls it (see :func:`jacobi_eigh`).

Energies are shifted before exponentiation, but a level-pair sum still
reaches exp(u * (E_max - E_min)) with u up to beta: sigma_nodes has that
factor in one table, and in a full gap_integrals table it is the product of
two factors of at most exp(u * width / 2) each.  Both therefore overflow
float64 once beta * (E_max - E_min) exceeds ~709.  The summands of the
leading k columns of G reach only exp(u * (E_{k-1} - E_min)) (levels
ascending), so snr_bound's d x 2 table stays finite; its sigma_nodes does
not.  Cold, wide spectra reach that: a 40-level oscillator probe (width 39)
does at beta ~ 18.2, where the report rows turn NaN.

The two table pairs keep different energy origins.  Gap integrals read from
the sigma pair (origin E_min) move X by 2.6e-11 on a derandomized example of
``test_closing_cluster_moves_x_by_its_slope_only``, past its 2.3e-11
allowance; a sigma pair centred on the midrange makes the oscillator report's
cold rows finite, which the benchmark's smoke test refuses (ROADMAP 4).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import CACHE_SIZE, _read_only


@lru_cache(maxsize=CACHE_SIZE)
def _gap_tables(levels: bytes, nodes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(e^{-u E'}, e^{u E'}) with E' the levels centred on their midrange."""
    e, u = np.frombuffer(levels), np.frombuffer(nodes)
    mid = 0.5 * (e.max() + e.min())
    ue = np.multiply.outer(u, e - mid)  # ue[j, a] = u_j E'_a
    return _read_only(np.exp(-ue), np.exp(ue))


@lru_cache(maxsize=CACHE_SIZE)
def _sigma_tables(levels: bytes, nodes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """(e^{E'' u}, e^{-E'' u}) with E'' the levels shifted to start at zero."""
    e, u = np.frombuffer(levels), np.frombuffer(nodes)
    es = e - e.min()
    eu = np.multiply.outer(es, u)  # eu[n, j] = E''_n u_j
    return _read_only(np.exp(eu), np.exp(-eu))


def _as_bytes(a) -> bytes:
    """The cache key of levels or nodes: equal float64 contents hit, whatever
    array or list they came in."""
    return np.asarray(a, dtype=float).tobytes()


def gap_integrals(energies, u_nodes, coeffs, k=None):
    """G[a, b] = sum_j coeffs[j] * exp(u_nodes[j] * (E_b - E_a)), for the
    leading ``k`` columns b < k (all d columns when ``k`` is None).

    ``coeffs`` already contains quadrature weights times any node-dependent
    kernel factor.  The result is d x k, a (d x n_u)(n_u x k) product; at
    k >= d it is the full d x d product.  Energies are centred before
    exponentiation, so each table entry stays within float range while
    u_max * width / 2 < ~709; the summands of column b are at most
    exp(u_max * (E_b - E_min)), so the full table overflows once
    u_max * width > ~709, while k columns hold until u_max * (E_b - E_min)
    does for some b < k.
    """
    down, up = _gap_tables(_as_bytes(energies), _as_bytes(u_nodes))
    return (down * np.asarray(coeffs, dtype=float)[:, None]).T @ up[:, :k]


def sigma_nodes(energies, abs_s_sq, u_nodes):
    """sigma[n, j] = sum_k abs_s_sq[n, k] * exp(-u_nodes[j] * (E_k - E_n))."""
    up, down = _sigma_tables(_as_bytes(energies), _as_bytes(u_nodes))
    return up * (np.asarray(abs_s_sq, dtype=float) @ down)


# ----------------------------------------------------------------------------
# cyclic Jacobi eigensolver (complex Hermitian)
# ----------------------------------------------------------------------------
#
# One rotation zeroes the pivot A[p, q]:  write A[p, q] = b * e^{i phi}; the
# phase twist diag(e^{i phi/2}, e^{-i phi/2}) makes the 2x2 block real
# symmetric, then the standard stable rotation t = sign(tau)/(|tau| +
# sqrt(1 + tau^2)) with tau = (A_qq - A_pp)/(2 b) annihilates it.  Sweeps over
# all pairs repeat until the off-diagonal Frobenius norm falls below
# tol_rel * ||A||_F.


def jacobi_eigh(H, tol_rel: float = 1e-14, max_sweeps: int = 60):
    """Diagonalise a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns ``(evals, V, sweeps)`` with ``A = V diag(evals) V^dag`` up to the
    convergence threshold.  Eigenvalues are unsorted (diagonal order).

    The library diagonalises with LAPACK (:func:`fctherm.linalg.eigendecompose`)
    and never calls this solver.  It stays only while the benchmark's tracer
    smoke test (``perfbench/test_perfbench_smoke.py``) expects every trace
    target, this one included, to exist.
    """
    A = np.array(H, dtype=np.complex128)
    d = A.shape[0]
    V = np.eye(d, dtype=np.complex128)
    if d == 1:
        return np.array([A[0, 0].real]), V, 0
    scale = np.sqrt(np.sum(np.abs(A) ** 2))
    if scale == 0.0:
        return np.zeros(d), V, 0
    thresh = tol_rel * scale
    skip = 0.1 * thresh / d
    sweeps = 0
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * np.sum(np.abs(np.triu(A, 1)) ** 2))
        if off <= thresh:
            break
        sweeps += 1
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = A[p, q]
                bmag = abs(apq)
                if bmag <= skip:
                    continue
                ph = np.exp(0.5j * math.atan2(apq.imag, apq.real))
                tau = (A[q, q].real - A[p, p].real) / (2.0 * bmag)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                wpp = c * ph
                wpq = s * ph
                wqp = -s * np.conj(ph)
                wqq = c * np.conj(ph)
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = cp * wpp + cq * wqp
                A[:, q] = cp * wpq + cq * wqq
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = np.conj(wpp) * rp + np.conj(wqp) * rq
                A[q, :] = np.conj(wpq) * rp + np.conj(wqq) * rq
                A[p, q] = 0.0
                A[q, p] = 0.0
                A[p, p] = A[p, p].real
                A[q, q] = A[q, q].real
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = vp * wpp + vq * wqp
                V[:, q] = vp * wpq + vq * wqq
    evals = np.real(np.diag(A)).copy()
    return evals, V, sweeps
