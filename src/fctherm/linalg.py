"""Hermitian-operator utilities: spectra, thermal states, logarithmic derivatives.

Everything downstream works in the eigenbasis produced here, so this module
pins down the conventions once:

* eigenvalues ascending, each column paired with its own eigenvalue as LAPACK
  (or, for a diagonal matrix, the stable sort of the diagonal) returns it;
  every column's phase is fixed so its largest-magnitude entry is real and
  positive.  Both solvers are deterministic for a given input and build, so
  the decomposition of a given matrix is reproducible bit-for-bit across runs.
* thermal populations are computed from shifted energies, exp(-beta(E - E_min)),
  so no intermediate overflows for any beta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import laguerre, legendre

from .errors import SingularSupportError
from .tolerances import DEFAULT_TOL, Tolerances

# Gauss-Laguerre weights carry a factor e^{x_i}; beyond ~170 nodes the largest
# abscissa exceeds 700 and that factor overflows float64.
MAX_LAGUERRE_NODES = 170

# Fixed guards of every decomposition and density operator; "relative" ones
# scale with max(1, max|M|).
HERMITICITY_TOL = 1e-12         # max |M - M^dag| allowed on input operators (relative)
EIG_RECONSTRUCTION_TOL = 1e-10  # max |V w V^dag - H| (relative)
EIG_UNITARITY_TOL = 1e-10       # max |V^dag V - 1|
SLD_TRACE_TOL = 1e-10           # max |tr drho| in sld_solve, relative to max(1, ||drho||_F)

# beta * cutoff above which quad_thermal_frequency splits off the infrared
# window [0, THERMAL_SPLIT / beta]; beyond it exp(-beta w) < exp(-THERMAL_SPLIT).
THERMAL_SPLIT = 30.0

# Every quad_imaginary_time rule on [0, beta] is its own mirror about beta/2
# to within this many ulps of beta: |(beta - u_j) - u_{n-1-j}| <= it.
_MIRROR_ULPS = 4


def require_hermitian(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Validate a non-empty, square, finite, Hermitian array and return it in
    the one dtype every later step keeps: a contiguous float64 copy when its
    imaginary part is all zero, complex128 otherwise.

    Every operator but a built-in probe's Hamiltonian, which is diagonal by
    construction, enters through here (probe and bath operators,
    decompositions, density operators, state derivatives), so no later step
    meets an empty spectrum, and a real-symmetric model runs LAPACK's
    real-symmetric solver and real GEMMs from then on.  The copy is
    contiguous because numpy's matmul does not hand a strided view (such as
    the real part of a complex array) to BLAS.
    """
    m = np.asarray(matrix)
    if m.dtype.kind not in "biuf":  # complex entries, or entries numpy must convert
        m = m.astype(np.complex128, copy=False)
    if m.dtype.kind != "c" or not m.imag.any():
        m = np.array(m.real, dtype=np.float64, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise ValueError(f"{name} must be a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a NaN would pass every comparison below
        raise ValueError(f"{name} has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(m))))
    drift = float(np.max(np.abs(m - m.conj().T)))
    if drift > HERMITICITY_TOL * scale:
        raise ValueError(f"{name} is not Hermitian: max|M - M^dag| = {drift:.3e}")
    return m


@dataclass
class SpectralDecomposition:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix.

    ``evecs`` has the dtype :func:`require_hermitian` chose for the matrix:
    float64 for a real one, complex128 otherwise.  The basis rotations take
    the operand as it is, so they run in float64 when ``evecs`` and the
    operand are both real.  The decomposition of a diagonal matrix keeps its
    sort permutation as ``_order`` (``evecs`` is ``eye[:, _order]``) and
    rotates by indexing, to the bytes and dtype of the dense products.
    """

    evals: np.ndarray
    evecs: np.ndarray
    _order: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.evals.size

    def _permuted(self, op, index: np.ndarray) -> np.ndarray:
        """``op[index][:, index]`` in the dense rotation's dtype; adding 0.0
        turns a -0.0 into the +0.0 the matrix product gives."""
        op = np.asarray(op)
        out = op.take(index, axis=0).take(index, axis=1)
        return out.astype(np.result_type(self.evecs, op), copy=False) + 0.0

    def to_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        """Rotate an operator from the original basis into this eigenbasis."""
        if self._order is not None:
            return self._permuted(op, self._order)
        return self.evecs.conj().T @ op @ self.evecs

    def from_eigenbasis(self, op: np.ndarray) -> np.ndarray:
        if self._order is not None:
            return self._permuted(op, np.argsort(self._order))
        return self.evecs @ op @ self.evecs.conj().T


def _phase_gauge(evecs: np.ndarray) -> np.ndarray:
    """Fix every column's phase, in place, so its largest-magnitude entry is
    real and positive.  A zero pivot (zero column) is divided by 1, not 0, so the
    column stays zero instead of turning into NaN."""
    cols = np.arange(evecs.shape[1])
    mags = np.abs(evecs)
    rows = np.argmax(mags, axis=0)
    mag = mags[rows, cols]
    evecs *= np.conj(evecs[rows, cols]) / np.where(mag > 0, mag, 1.0)
    evecs[rows, cols] = np.abs(evecs[rows, cols])  # force exactly real
    return evecs


def _checked(w, v, order, uni: float, rec: float, scale: float) -> SpectralDecomposition:
    """The decomposition (w, v, order) once its unitarity deviation ``uni``
    and reconstruction deviation ``rec`` pass their guards; ``scale`` is
    max(1, max|H|).  ValueError otherwise."""
    if uni > EIG_UNITARITY_TOL:
        raise ValueError(f"eigenvector matrix not unitary: deviation {uni:.3e}")
    if rec > EIG_RECONSTRUCTION_TOL * scale:
        raise ValueError(f"spectral reconstruction failed: deviation {rec:.3e}")
    return SpectralDecomposition(evals=w, evecs=v, _order=order)


def _diagonal_decomposition(diag: np.ndarray) -> SpectralDecomposition:
    """Decomposition of a matrix whose off-diagonal entries are all exactly
    zero, from its diagonal ``diag`` (in the matrix's dtype, entries finite):
    the stably sorted real diagonal and the unit vectors ``eye[:, order]``,
    with both checks of :func:`eigendecompose` in closed form.

    :func:`eigendecompose` calls it after its input checks; the built-in
    probes call it on their levels, which they check for finiteness
    themselves (a NaN would pass the reconstruction check)."""
    order = np.argsort(diag.real, kind="stable")
    w = diag.real[order]
    v = np.eye(w.size, dtype=diag.dtype)[:, order]
    uni = 0.0 if np.array_equal(np.sort(order), np.arange(w.size)) else np.inf
    rec = float(np.max(np.abs(diag[order] - w)))
    return _checked(w, v, order, uni, rec, max(1.0, float(np.max(np.abs(diag)))))


def eigendecompose(matrix: np.ndarray) -> SpectralDecomposition:
    """Diagonalise a Hermitian matrix with LAPACK (``numpy.linalg.eigh``).

    A matrix with zero imaginary part is diagonalised in real arithmetic (see
    :func:`require_hermitian`), so its ``evecs`` are float64; otherwise they
    are complex128.  A matrix whose off-diagonal entries are all exactly zero
    needs no solver: its eigenvalues are the stably sorted diagonal and its
    eigenvectors the matching unit vectors (:func:`_diagonal_decomposition`).

    Raises ValueError if the input is not Hermitian or if the result fails the
    unitarity / reconstruction checks.
    """
    a = require_hermitian(matrix)
    diag = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(diag):
        return _diagonal_decomposition(diag)
    w, v = np.linalg.eigh(a)  # ascending eigenvalues
    v = _phase_gauge(v)
    uni = float(np.max(np.abs(v.conj().T @ v - np.eye(w.size))))
    rec = float(np.max(np.abs((v * w) @ v.conj().T - a)))
    return _checked(w, v, None, uni, rec, max(1.0, float(np.max(np.abs(a)))))


@dataclass
class DensityOperator:
    """A density matrix checked for Hermiticity and unit trace; positivity is
    gated by callers whose floor means something (see ``tol.psd_mean_force``)."""

    matrix: np.ndarray
    tol: Tolerances = field(default=DEFAULT_TOL, repr=False)

    def __post_init__(self):
        m = require_hermitian(self.matrix, name="density operator")
        tr = float(np.real(np.trace(m)))
        if abs(tr - 1.0) > self.tol.unit_trace:
            raise ValueError(f"density operator trace {tr!r} differs from 1")
        self.matrix = m

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def gibbs_populations(evals: np.ndarray, beta: float) -> np.ndarray:
    """Thermal populations of a given spectrum, from shifted energies so the
    largest Boltzmann factor is exactly 1.  ``beta`` must be finite and >= 0
    (ValueError otherwise); beta == 0 gives equal populations."""
    if not 0.0 <= beta < np.inf:  # NaN too
        raise ValueError(f"inverse temperature beta must be finite and >= 0, got {beta}")
    e = np.asarray(evals, dtype=float)
    q = np.exp(-beta * (e - e.min()))
    return q / q.sum()


def gibbs_state(
    decomp: SpectralDecomposition, beta: float, tol: Tolerances = DEFAULT_TOL
) -> DensityOperator:
    """Thermal state exp(-beta H)/Z of the Hamiltonian with spectral
    decomposition ``decomp``.  ``beta`` must be finite and >= 0 (see
    :func:`gibbs_populations`); beta == 0 gives the maximally mixed state."""
    rho = decomp.from_eigenbasis(np.diag(gibbs_populations(decomp.evals, beta)))
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(rho, tol)


def sld_solve(rho: np.ndarray, drho: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve (L rho + rho L)/2 = drho for the symmetric logarithmic derivative.

    Works in the eigenbasis of ``rho``:  L_ij = 2 drho_ij / (lambda_i + lambda_j).
    Directions with lambda_i + lambda_j below ``tol.sld_support`` are null: if
    the derivative has weight above ``tol.sld_kernel_drho`` there the equation
    has no solution on the support and :class:`SingularSupportError` is raised;
    otherwise those components are set to zero.  A derivative whose trace
    exceeds ``SLD_TRACE_TOL`` (relative) is not trace-preserving and raises
    ValueError.
    """
    dec = eigendecompose(rho)
    drho = require_hermitian(drho, name="state derivative")
    tr_d = float(abs(np.trace(drho)))
    if tr_d > SLD_TRACE_TOL * max(1.0, float(np.linalg.norm(drho))):
        raise ValueError(
            f"state derivative has trace {tr_d:.3e}; a trace-preserving family is required"
        )
    dr = dec.to_eigenbasis(drho)
    lam = dec.evals
    pair = lam[:, None] + lam[None, :]
    null = pair < tol.sld_support
    if np.any(null & (np.abs(dr) > tol.sld_kernel_drho)):
        worst = float(np.max(np.abs(dr[null])))
        raise SingularSupportError(
            f"derivative weight {worst:.3e} on a null direction of the state"
        )
    safe = np.where(null, 1.0, pair)
    l_eig = np.where(null, 0.0, 2.0 * dr / safe)
    l_eig = 0.5 * (l_eig + l_eig.conj().T)
    return dec.from_eigenbasis(l_eig)


def qfi_from_sld(rho: np.ndarray, sld: np.ndarray) -> float:
    """Quantum Fisher information tr(L^2 rho)."""
    return float(np.real(np.trace(sld @ sld @ rho)))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights approximating an integral."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str

    def __post_init__(self):
        # a NaN weight would pass the sign test below
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise ValueError("quadrature nodes and weights must be finite")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, values: np.ndarray) -> float:
        return float(np.dot(self.weights, values))


# Entries of every cache of beta-only or Hamiltonian-only work: enough for the
# current beta of a beta-major grid, far fewer than a grid has betas.
CACHE_SIZE = 4


def _read_only(*arrays: np.ndarray | None) -> tuple[np.ndarray | None, ...]:
    """Mark each array read-only; a None (a dense decomposition's ``_order``)
    is passed over."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n."""
    return _read_only(*legendre.leggauss(n))


@lru_cache(maxsize=128)
def _laggauss(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes x, weights w and the weight factor e^{x}, built
    once per n."""
    x, w = laguerre.laggauss(n)
    return _read_only(x, w, np.exp(x))


def _legendre_panels(n: int, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Legendre rule on every panel
    [a_k, b_k], panel after panel: the one place Legendre nodes are mapped.
    ``a`` and ``b`` are both scalars (one panel) or both 1-D arrays."""
    x, w = _leggauss(n)
    if np.ndim(a):
        a, b = a[:, None], b[:, None]
    half = 0.5 * (b - a)
    return (half * x + 0.5 * (a + b)).ravel(), (half * w).ravel()


def quad_finite(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes on a finite [a, b]; exact for degree <= 2n-1."""
    if n < 1:
        raise ValueError("need at least one node")
    for name, end in (("a", a), ("b", b)):
        if not -np.inf < end < np.inf:  # NaN too
            raise ValueError(f"{name} must be finite, got {end!r}")
    return QuadratureRule(*_legendre_panels(n, a, b), kind="gauss-legendre")


def _laguerre(n: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss-Laguerre rule on [0, inf) with
    decay rate 1/scale, e^{x} folded into the weights: the one place Laguerre
    nodes are mapped."""
    x, w, ex = _laggauss(n)
    return scale * x, scale * w * ex


def quad_thermal_frequency(n: int, cutoff: float, beta: float) -> QuadratureRule:
    """Frequency rule for integrands weighted by both exp(-w/cutoff) and
    thermal kernels with structure at w ~ 1/beta.

    With S = THERMAL_SPLIT: for beta*cutoff <= S a single Gauss-Laguerre rule
    at the cutoff scale resolves everything.  In the cold regime the two
    scales separate and that rule has no nodes in the infrared where the
    thermal weight lives, so an extra structure is needed:

      [0, S/beta]          Gauss-Legendre; all thermal-kernel structure
                           (features of width ~1/beta) lives here, and
                           exp(-beta w) < exp(-S) beyond it,
      [S/beta, 2*cutoff]   Gauss-Legendre; the kernels decay algebraically
                           (a 1/w series) which a Laguerre rule anchored
                           this close to the origin resolves only slowly,
      [2*cutoff, inf)      shifted Gauss-Laguerre; pure exponential decay
                           times a slowly varying factor.

    Spectral features tied to a system gap E are resolved provided
    beta * E <~ S, i.e. for any level the thermal state populates.  Either
    Laguerre rule is capped at MAX_LAGUERRE_NODES nodes.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not 0 < beta < np.inf:  # NaN too
        raise ValueError("beta must be positive and finite")
    if beta * cutoff <= THERMAL_SPLIT:
        # single-scale regime; the Laguerre weight factor caps the node count
        return quad_semiinfinite(min(n, MAX_LAGUERRE_NODES), scale=cutoff)
    w_split = THERMAL_SPLIT / beta
    n_low = max(1, n // 2)
    n_mid = max(8, (n - n_low) * 3 // 5)
    n_tail = min(max(8, n - n_low - n_mid), MAX_LAGUERRE_NODES)
    low_x, low_w = _legendre_panels(n_low, 0.0, w_split)
    mid_x, mid_w = _legendre_panels(n_mid, w_split, 2.0 * cutoff)
    tail_x, tail_w = _laguerre(n_tail, cutoff)
    return QuadratureRule(
        nodes=np.concatenate([low_x, mid_x, 2.0 * cutoff + tail_x]),
        weights=np.concatenate([low_w, mid_w, tail_w]),
        kind="legendre+laguerre",
    )


@lru_cache(maxsize=CACHE_SIZE)
def quad_imaginary_time(n: int, beta: float, layer: float | None = None) -> QuadratureRule:
    """Rule on [0, beta] for thermal imaginary-time integrands.

    Correlators of a continuum environment with frequency cutoff 1/layer decay
    algebraically over a width ~layer next to both endpoints, with amplitude
    growing as 1/layer^2; a single Gauss-Legendre rule cannot see that
    structure once layer << beta.  This rule tiles [0, beta/2] with panels
    graded geometrically upward from the layer scale, mirrors them about
    beta/2, and places a small Gauss-Legendre rule on each panel, so every
    intermediate scale between layer and beta is resolved.  With no layer (or
    one comparable to beta) it reduces to the plain rule.

    Either way the rule is mirror-symmetric about beta/2, a stated guarantee:
    read backwards, its nodes are beta - u_j to within ``_MIRROR_ULPS`` ulps
    of beta, the rounding that forming beta - u_j itself costs.  A bath
    correlator reads C(beta - u_j) off node n-1-j (README "Numerical design
    notes").

    The rule depends on (n, beta, layer) alone, and the expansion, the
    integral route and every theta of a sweep ask for the same one: it is
    built once and kept in a small LRU cache, its nodes and weights
    read-only.  A call that raises leaves no entry.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not 0 < beta < np.inf:  # NaN too
        raise ValueError("beta must be positive and finite")
    if layer is None or not 0.0 < layer < 0.125 * beta:
        rule = quad_finite(n, 0.0, beta)
        _read_only(rule.nodes, rule.weights)
        return rule
    edges = [0.0]
    b = float(layer)
    while b < 0.5 * beta:
        edges.append(b)
        b *= 4.0
    edges.append(0.5 * beta)
    # a last panel far thinner than its neighbour would only hold tied nodes
    # with vanishing weights: it joins the neighbour
    if edges[-1] - edges[-2] < 1e-10 * (edges[-2] - edges[-3]):
        del edges[-2]
    m = max(10, int(n) // (2 * (len(edges) - 1)))
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    # mirrors run from the middle outward, so panels and nodes both ascend
    panels = np.concatenate([lo, beta - hi[::-1]]), np.concatenate([hi, beta - lo[::-1]])
    return QuadratureRule(*_read_only(*_legendre_panels(m, *panels)), kind="legendre-graded")


def quad_semiinfinite(n: int, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Laguerre rule for integrals over [0, inf) with decay rate 1/scale.

    The substitution x = omega / scale makes the rule exact for
    p(omega) * exp(-omega/scale) with p of degree <= 2n-1.  The e^{x} factor
    folded into the weights caps the node count (see MAX_LAGUERRE_NODES).  A
    ``scale`` that is not positive and finite raises ValueError naming it.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > MAX_LAGUERRE_NODES:
        raise ValueError(
            f"{n} Laguerre nodes would overflow the e^x weight factor; "
            f"maximum is {MAX_LAGUERRE_NODES}"
        )
    if not 0 < scale < np.inf:  # NaN too
        raise ValueError(f"scale must be positive and finite, got {scale!r}")
    return QuadratureRule(*_laguerre(n, scale), kind="gauss-laguerre")
