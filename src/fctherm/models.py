"""Probe models, bath models, and imaginary-time correlation functions.

Conventions
-----------
All correlators are thermal autocorrelation functions of a coupling operator
evaluated at imaginary time -i*u with 0 <= u <= beta (hbar = k_B = 1):

    C(u) = < A(-i u) A >_thermal = sum_{n,k} p_n |A_nk|^2 exp(-u (E_k - E_n)).

They are uncentred; a zero-mean coupling is an *assumption* of the weak
coupling machinery, tracked separately via each correlator's ``mean``.  Every
closed form below is written with non-positive exponents only, so nothing
overflows at large beta or large frequency, and none below -700 reaches
np.exp (``_decay``).

Each correlator exposes ``value``, ``dbeta`` and ``d2beta`` (derivatives at
fixed u with respect to inverse temperature); ``d2beta`` may raise
``NotImplementedError`` where it is never needed.  ``value_and_dbeta``
returns the first two together, so a correlator can share work between them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .errors import TruncationWarning
from .linalg import (
    CACHE_SIZE,
    _MIRROR_ULPS,
    QuadratureRule,
    SpectralDecomposition,
    _diagonal_decomposition,
    _read_only,
    eigendecompose,
    gibbs_populations,
    quad_thermal_frequency,
    require_hermitian,
)
from .tolerances import DEFAULT_TOL

DEFAULT_FREQ_NODES = 128  # semi-infinite rule size for continuum baths
MIDPOINT_BETA_GAP = 3e-4  # |beta (E_n - E_m)| below which X_nm takes the midpoint form
OSCILLATOR_MIN_LEVELS = 40  # smallest automatic oscillator truncation

# Pauli matrices shared by the two-level models (read-only, so sharing is safe)
SIGMA_Z = np.diag([1.0, -1.0])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z.flags.writeable = SIGMA_X.flags.writeable = False


def _level_count(n, name: str, least: int) -> int:
    """``n`` as an int; a non-integral or non-finite count, or one below
    ``least``, is refused with a ValueError naming ``name``."""
    if not (float(n).is_integer() and n >= least):
        raise ValueError(f"{name} must be an integer of at least {least}, got {n!r}")
    return int(n)


def _ladder(omega: float, n_levels: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Truncated harmonic mode: H = omega (n + 1/2) and the unit-mass position
    x = (a + a^dag) / sqrt(2 omega), both on the lowest ``n_levels`` Fock states.
    A frequency that is not positive and finite, or a top level that is not
    finite, is refused (ValueError naming ``name``) from Python floats,
    before numpy forms the ladder and warns."""
    if not 0 < omega < np.inf:  # NaN too
        raise ValueError(f"{name}: oscillator frequency must be positive and finite, "
                         f"got {omega!r}")
    if not float(omega) * (n_levels - 0.5) < np.inf:
        raise ValueError(f"{name} has a non-finite level: omega = {omega!r} "
                         f"on {n_levels} levels")
    k = np.arange(n_levels)
    h = np.diag(omega * (k + 0.5))
    x = np.zeros((n_levels, n_levels))
    off = np.sqrt((k[:-1] + 1) / (2.0 * omega))
    x[k[:-1], k[:-1] + 1] = off
    x[k[:-1] + 1, k[:-1]] = off
    return h, x


# ----------------------------------------------------------------------------
# spectral densities
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuumBath:
    """Power-law spectral density with exponential cutoff.

    J(omega) = cutoff**(dim_exponent - s) * omega**s * exp(-omega/cutoff)

    ``s`` is the low-frequency exponent (s=1 is the Ohmic point) and
    ``dim_exponent`` keeps J * S^2 at the dimension of an energy squared:
    a coupling operator of energy dimension mu requires dim_exponent = 1 - 2 mu.
    """

    s: float
    cutoff: float
    dim_exponent: float = 1.0

    def __post_init__(self):
        if not 0 < self.s < np.inf:  # NaN too
            raise ValueError("low-frequency exponent s must be positive and finite")
        if not 0 < self.cutoff < np.inf:
            raise ValueError("cutoff must be positive and finite")
        if not np.isfinite(self.dim_exponent):
            raise ValueError("dim_exponent must be finite")


def spectral_density(bath: ContinuumBath, omega):
    """Evaluate J(omega) for a continuum bath (elementwise; every omega finite
    and >= 0, ValueError otherwise)."""
    w = np.asarray(omega, dtype=float)
    if not ((w >= 0.0) & (w < np.inf)).all():  # NaN too
        raise ValueError("spectral density is defined on omega >= 0")
    return bath.cutoff ** (bath.dim_exponent - bath.s) * w**bath.s * np.exp(-w / bath.cutoff)


@dataclass(frozen=True, eq=False)
class DiscreteBath:
    """A finite-dimensional bath given by its Hamiltonian and coupling operator.

    Immutable, with read-only arrays, and equal only to itself: the bath
    correlator cache of :func:`bath_correlation` is keyed on the object, and
    every correlator and joint model built from it shares its arrays and its
    once-computed ``decomp``.
    """

    hamiltonian: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        # copies, as require_hermitian hands back a complex input itself and
        # the caller's array must stay writeable
        h = np.array(require_hermitian(self.hamiltonian, name="bath Hamiltonian"))
        b = np.array(require_hermitian(self.coupling, name="bath coupling"))
        if h.shape != b.shape:
            raise ValueError("bath Hamiltonian and coupling must have equal shapes")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "coupling", b)
        _read_only(h, b)

    @cached_property
    def decomp(self) -> SpectralDecomposition:
        decomp = eigendecompose(self.hamiltonian)
        _read_only(decomp.evals, decomp.evecs, decomp._order)
        return decomp


def bath_qubit(omega_b: float = 1.0) -> DiscreteBath:
    """Two-level bath H_B = omega_b sigma_z with transverse coupling sigma_x."""
    return DiscreteBath(omega_b * SIGMA_Z, SIGMA_X)


def bath_mode(omega_b: float = 1.0, n_levels: int = 20) -> DiscreteBath:
    """Single truncated bosonic mode with position-like coupling."""
    h, x = _ladder(omega_b, _level_count(n_levels, "n_levels", 1), "bath Hamiltonian")
    return DiscreteBath(h, x)


# ----------------------------------------------------------------------------
# probes
# ----------------------------------------------------------------------------

# energy dimension of the built-in probes' coupling operators: a spin
# coupling is dimensionless, a unit-mass position x = (a + a^dag)/sqrt(2 omega0)
# has dimension energy^(-1/2)
PROBE_DIM_EXPONENTS = {"qubit": 0.0, "oscillator": -0.5}


@dataclass
class ProbeModel:
    """A finite-dimensional thermometer probe: Hamiltonian plus coupling operator.

    ``dim_exponent`` is the energy dimension of the coupling operator (0 for a
    dimensionless spin coupling, -1/2 for a position coupling); ``None`` for
    custom probes that opt out of dimensional validation.
    """

    kind: str
    hamiltonian: np.ndarray
    coupling: np.ndarray
    params: dict
    dim_exponent: float | None
    decomp: SpectralDecomposition

    @property
    def dim(self) -> int:
        return self.decomp.dim


def _level_spectrum(h: np.ndarray, *operators: np.ndarray) -> tuple:
    """``(h, *operators, decomp)`` with every array read-only, for the
    per-Hamiltonian caches of the built-in probes, whose ``h`` is diagonal by
    construction: ``decomp`` comes from its levels in closed form, with
    ``eigendecompose``'s unitarity and reconstruction checks, once a
    non-finite level is refused.  ``h`` skips ``require_hermitian``: its only
    entries that are not exact zeros are those levels."""
    levels = np.diagonal(h)
    if not np.isfinite(levels).all():
        raise ValueError("probe Hamiltonian has a non-finite level")
    decomp = _diagonal_decomposition(levels)
    _read_only(h, *operators, decomp.evals, decomp.evecs, decomp._order)
    return (h, *operators, decomp)


@lru_cache(maxsize=CACHE_SIZE)
def _qubit_spectrum(epsilon: float) -> tuple:
    return _level_spectrum(0.5 * epsilon * SIGMA_Z)


@lru_cache(maxsize=CACHE_SIZE)
def _oscillator_spectrum(omega0: float, n_trunc: int) -> tuple:
    return _level_spectrum(*_ladder(omega0, n_trunc, "probe Hamiltonian"))


def probe_qubit(epsilon: float = 1.0, theta: float = 0.0) -> ProbeModel:
    """Two-level probe H = (epsilon/2) sigma_z coupled through
    cos(theta) sigma_z - sin(theta) sigma_x.

    H does not depend on theta, so every probe with an equal ``epsilon``
    shares one read-only ``hamiltonian`` and ``decomp`` from a small LRU
    cache; the coupling and the ``params`` dict are the probe's own.
    """
    if not 0 < epsilon < np.inf:  # NaN too
        raise ValueError("level splitting must be positive and finite")
    if not np.isfinite(theta):
        raise ValueError("coupling angle theta must be finite")
    h, decomp = _qubit_spectrum(float(epsilon))
    s = np.cos(theta) * SIGMA_Z - np.sin(theta) * SIGMA_X
    return ProbeModel(
        kind="qubit",
        hamiltonian=h,
        coupling=s,
        params={"epsilon": epsilon, "theta": theta},
        dim_exponent=PROBE_DIM_EXPONENTS["qubit"],
        decomp=decomp,
    )


def _require_oscillator_scales(omega0: float, beta: float | None, tail: float) -> None:
    """Refuse an oscillator frequency or design inverse temperature that is not
    positive and finite, or a tail population outside (0, 1) (NaN too), before
    it reaches a cache, a logarithm or an int().

    A design point with beta * omega0 <= tail is refused too: there even the
    ground level holds less than ``tail``, so every truncation passes the
    top-level rule while keeping almost none of the thermal state."""
    if not 0 < omega0 < np.inf:
        raise ValueError("oscillator frequency must be positive and finite")
    if beta is not None and not 0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    if not 0 < tail < 1:
        raise ValueError(f"tail_population must lie in (0, 1), got {tail!r}")
    if beta is not None and beta * omega0 <= tail:
        raise ValueError(
            f"beta * omega0 = {beta * omega0:.3g} is at or below tail_population = {tail:.3g}: "
            f"every level holds less than the tail, so no truncation keeps the thermal state"
        )


def oscillator_levels(omega0: float, beta: float, tail: float = DEFAULT_TOL.tail_population) -> int:
    """Smallest truncation, at least ``OSCILLATOR_MIN_LEVELS``, with top-level
    thermal population below ``tail``."""
    _require_oscillator_scales(omega0, beta, tail)
    x = np.exp(-beta * omega0)
    if x <= 0.0:
        return OSCILLATOR_MIN_LEVELS
    need = int(np.ceil(1.0 + np.log(tail / (1.0 - x)) / np.log(x)))
    return max(OSCILLATOR_MIN_LEVELS, need)


def _top_level_population(omega0: float, beta: float, n_trunc: int) -> float:
    """Thermal weight of the highest retained Fock level."""
    x = np.exp(-beta * omega0)
    return float(x ** (n_trunc - 1) * (1.0 - x))


def probe_oscillator(
    omega0: float = 1.0,
    n_trunc: int | None = None,
    beta_design: float | None = None,
    tail: float = DEFAULT_TOL.tail_population,
) -> ProbeModel:
    """Truncated harmonic probe H = omega0 (n + 1/2), coupled through position.

    If ``n_trunc`` is not given, the truncation is ``OSCILLATOR_MIN_LEVELS``,
    enlarged, when ``beta_design`` is supplied, until the top-level thermal
    population falls below ``tail``.  An explicit ``n_trunc`` that leaves more
    than ``tail`` in the top level at ``beta_design`` triggers a warning, and
    a truncation so small that the top level holds more than 1e-3 of the
    population is rejected outright.

    H and x depend on (omega0, n_trunc) alone, so probes with equal values
    share one read-only ``hamiltonian``, ``coupling`` and ``decomp`` from a
    small LRU cache; the ``params`` dict is the probe's own.
    """
    _require_oscillator_scales(omega0, beta_design, tail)
    if n_trunc is None:
        n_trunc = (OSCILLATOR_MIN_LEVELS if beta_design is None
                   else oscillator_levels(omega0, beta_design, tail))
    else:
        n_trunc = _level_count(n_trunc, "n_trunc", 2)
        if beta_design is not None:
            top = _top_level_population(omega0, beta_design, n_trunc)
            if top > 1e-3:
                raise ValueError(
                    f"truncation at {n_trunc} levels leaves population {top:.2e} in the "
                    f"top level at inverse temperature {beta_design}; increase n_trunc"
                )
            if top > tail:
                warnings.warn(
                    f"top-level population {top:.2e} exceeds {tail:.1e} at inverse "
                    f"temperature {beta_design}; truncation error may dominate",
                    TruncationWarning,
                    stacklevel=2,
                )
    h, x, decomp = _oscillator_spectrum(float(omega0), int(n_trunc))
    return ProbeModel(
        kind="oscillator",
        hamiltonian=h,
        coupling=x,
        params={"omega0": omega0, "n_trunc": n_trunc},
        dim_exponent=PROBE_DIM_EXPONENTS["oscillator"],
        decomp=decomp,
    )


def probe_custom(
    hamiltonian: np.ndarray,
    coupling: np.ndarray,
    dim_exponent: float | None = None,
) -> ProbeModel:
    h = require_hermitian(hamiltonian, name="probe Hamiltonian")
    s = require_hermitian(coupling, name="probe coupling")
    if h.shape != s.shape:
        raise ValueError("probe Hamiltonian and coupling must have equal shapes")
    return ProbeModel(
        kind="custom",
        hamiltonian=h,
        coupling=s,
        params={"dim": h.shape[0]},
        dim_exponent=dim_exponent,
        decomp=eigendecompose(h),
    )


# ----------------------------------------------------------------------------
# correlation functions
# ----------------------------------------------------------------------------


def _decay(x) -> np.ndarray:
    """e^x for x <= 0, written over ``x`` if it is a fresh float array, with an
    exact 0 where x < -700 (e^{-700} ~ 1e-304, too small to move any sum it
    joins): np.exp sees -700 there, as its vector loop is many times slower
    for an argument below about -707 (README "Numerical design notes")."""
    x = np.asarray(x, dtype=float)
    gone = x < -700.0
    np.maximum(x, -700.0, out=x)
    np.exp(x, out=x)
    x[gone] = 0.0
    return x


class _ThermalLevels:
    """The Gibbs data of a spectrum at ``beta``, whatever the coupling: the
    ``populations`` p, ``mean_energy`` <E>, the ``centred`` energies E - <E>,
    ``dpopulations`` = -p (E - <E>), ``energy_var`` Var(E), ``d2populations``
    = p ((E - <E>)^2 - Var(E)), and per block size k the lowest pair's
    factors.  The ``_thermal_levels`` LRU cache keeps one read-only record
    per (levels' bytes, beta).

    E - <E> is formed from levels measured from the ground level, as the
    oracle does, so an energy offset of the spectrum does not cancel against
    <E> in it: the centred energies, and every figure read from them, are the
    same bits at any offset that shifts each level exactly."""

    def __init__(self, levels: bytes, beta: float):
        self.beta = beta
        self.evals = e = np.frombuffer(levels)
        p = self.populations = gibbs_populations(e, beta)
        self.mean_energy = float(np.dot(p, e))
        above_ground = e - e.min()
        centred = self.centred = above_ground - float(np.dot(p, above_ground))
        self.dpopulations = -p * centred
        self.energy_var = float(np.dot(p, centred**2))
        self.d2populations = p * (centred**2 - self.energy_var)
        _read_only(p, centred, self.dpopulations, self.d2populations)
        self._pairs: dict = {}

    def pair_factors(self, k: int) -> tuple[np.ndarray, ...]:
        """(near, safe_gap, lo, t) on the lowest k levels, built once per k,
        with gap[n, m] = E_n - E_m: ``near`` marks the off-diagonal pairs with
        |beta gap| < MIDPOINT_BETA_GAP, and ``safe_gap`` is 1 there and on the
        diagonal.  p_n e^{beta gap} = p_m is lo * t: lo = max(p_n, p_m), the
        lower level's population, and t = e^{-beta |gap|} where E_n <= E_m, 1
        elsewhere, so no exponent is positive.  lo is symmetric and t^T
        mirrors t, so a pair's halves round alike (README)."""
        kept = self._pairs.get(k)
        if kept is None:
            e, p, beta = self.evals[:k], self.populations[:k], self.beta
            gap = e[:, None] - e[None, :]
            near = np.abs(beta * gap) < MIDPOINT_BETA_GAP
            safe_gap = np.where(near, 1.0, gap)
            np.fill_diagonal(near, False)
            lo = np.maximum.outer(p, p)
            t = np.where(gap <= 0.0, np.exp(-beta * np.abs(gap)), 1.0)
            kept = self._pairs[k] = _read_only(near, safe_gap, lo, t)
        return kept


_thermal_levels = lru_cache(maxsize=CACHE_SIZE)(_ThermalLevels)


class _NodeTerms:
    """A correlator's read-only terms on the nodes u and weights w of an
    imaginary-time ``rule``, with phi = C(u), dphi = dC/dbeta and tail =
    beta - u at its beta: ``tail_phi`` = tail phi and ``f2_dphi`` =
    2 (phi + tail dphi), which the integral-route F2 reads, and the
    ``expansion``'s (w phi, w tail phi, w dphi, w tail dphi,
    w (phi + tail dphi)), the four gap-integral coefficients and the
    diagonal's kernel.  phi and dphi come from the correlator's
    ``_on_rule``, which may read C(beta - u_j) off node n-1-j, as every
    ``quad_imaginary_time`` rule is mirror-symmetric about beta/2."""

    def __init__(self, rule: QuadratureRule, corr: CorrelationFn):
        self.rule = rule
        phi, dphi = (np.asarray(c, dtype=float) for c in corr._on_rule(rule))
        tail = corr.beta - rule.nodes
        both = phi + tail * dphi
        self.tail_phi, self.f2_dphi = _read_only(tail * phi, 2.0 * both)
        if phi.ndim == 1:  # a column of modes (snr_kernel) feeds no expansion
            w = rule.weights
            w_tail = w * tail
            self.expansion = _read_only(w * phi, w_tail * phi, w * dphi, w_tail * dphi,
                                        w * both)


class CorrelationFn:
    """Interface: thermal autocorrelation of a coupling operator at -i*u."""

    beta: float
    # Width of the algebraic boundary layer the correlator develops next to
    # u = 0 and u = beta (inverse frequency cutoff); None when the correlator
    # is smooth on the scale of beta.  Quadrature builders grade their panels
    # to this scale.
    layer_width: float | None = None
    _terms: _NodeTerms | None = None  # those of the last rule_terms call

    def __init__(self, beta: float):
        if not 0 < beta < np.inf:  # NaN too
            raise ValueError("beta must be positive and finite")
        self.beta = float(beta)

    def value(self, u):
        raise NotImplementedError

    def dbeta(self, u):
        raise NotImplementedError

    def d2beta(self, u):
        raise NotImplementedError

    def value_and_dbeta(self, u):
        """``(value(u), dbeta(u))``; overridden where the two share work."""
        return self.value(u), self.dbeta(u)

    def _in_range(self, u) -> np.ndarray:
        """``u`` as a float array, refused with a ValueError naming u and beta
        unless every entry lies in [0, beta] (NaN and inf too)."""
        u = np.asarray(u, dtype=float)
        outside = ~((u >= 0.0) & (u <= self.beta))
        if outside.any():
            raise ValueError(f"imaginary time u = {float(u[outside].flat[0])!r} lies "
                             f"outside [0, beta] at beta = {self.beta!r}")
        return u

    def _on_rule(self, rule: QuadratureRule):
        """(C, dC/dbeta) on the nodes of ``rule``, which lie in [0, beta] by
        construction: the source of :class:`_NodeTerms`."""
        return self.value_and_dbeta(rule.nodes)

    def rule_terms(self, rule: QuadratureRule) -> _NodeTerms:
        """The correlator's node terms on ``rule`` (see :class:`_NodeTerms`);
        the terms of the last rule asked are kept, so a shared bath correlator
        evaluates them once for every row at its beta."""
        kept = self._terms
        if kept is None or kept.rule is not rule:
            kept = self._terms = _NodeTerms(rule, self)
        return kept


class EigenbasisCorrelation(CorrelationFn):
    """Correlator evaluated as an explicit double sum over energy levels.

    This is the exact level-sum form used by the expansion machinery: using it
    there makes trace identities hold to rounding even for truncated spectra.
    It owns the level data those sums need: the rotated coupling
    ``coupling_eig`` and the per-level sums ``sigma(u)``, and the Gibbs data
    ``thermal`` (:class:`_ThermalLevels`) it shares with every correlator on
    equal levels and beta: the read-only ``populations``, their
    beta-derivative ``dpopulations`` = -p (E - <E>), ``mean_energy`` and
    ``energy_var``.  It keeps the ``decomp`` it was built from for rotating
    back.
    """

    def __init__(self, decomp: SpectralDecomposition, coupling: np.ndarray, beta: float):
        super().__init__(beta)
        self.decomp = decomp
        self.evals = decomp.evals
        s = decomp.to_eigenbasis(coupling)
        # a dense rotation rounds S_nk and S_kn apart; x_matrix's a2 = a1^dag
        # holds only for S Hermitian bit for bit (README "Near-degenerate gaps")
        self.coupling_eig = 0.5 * (s + s.conj().T)
        self.abs_sq = np.abs(self.coupling_eig) ** 2
        self.thermal = th = _thermal_levels(self.evals.tobytes(), self.beta)
        self.populations, self.dpopulations = th.populations, th.dpopulations
        self.mean_energy, self.energy_var = th.mean_energy, th.energy_var
        self.mean = float(np.real(np.dot(self.populations, np.diag(self.coupling_eig))))

    def sigma(self, u) -> np.ndarray:
        """sigma_n(u) = sum_k |A_nk|^2 e^{-u (E_k - E_n)}, shape (levels, nodes)."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        return _kernels.sigma_nodes(self.evals, self.abs_sq, u_arr)

    def _weighted(self, u, weights):
        sig = self.sigma(u)
        out = weights @ sig
        return out if np.ndim(u) else float(out[0])

    def value(self, u):
        return self._weighted(u, self.populations)

    def dbeta(self, u):
        return self._weighted(u, self.dpopulations)

    def d2beta(self, u):
        return self._weighted(u, self.thermal.d2populations)


class OscillatorCorrelation(CorrelationFn):
    """Closed-form position autocorrelation of a unit-mass harmonic mode (a
    bath mode in ``snr_kernel``).  ``omega0``, positive and finite,
    may be a column of frequencies, shape (n, 1), giving one row per mode.
    Each method refuses a u outside [0, beta] (ValueError); the node terms
    of a rule skip that check."""

    def __init__(self, omega0, beta: float):
        super().__init__(beta)
        self.omega0 = w = np.asarray(omega0, dtype=float)
        if not np.all((0 < w) & (w < np.inf)):  # NaN too
            raise ValueError("oscillator frequency must be positive and finite")
        self._q = _decay(-self.beta * w)  # e^{-beta omega0} < 1

    def value(self, u):
        return self._value(self._in_range(u))

    def dbeta(self, u):
        return self._dbeta(self._in_range(u))

    def d2beta(self, u):
        w, q = self.omega0, self._q
        return 0.5 * w * self._pair(self._in_range(u)) * (1.0 + q) / (1.0 - q) ** 3

    def _value(self, u: np.ndarray):
        w, b = self.omega0, self.beta
        return (_decay(-u * w) + _decay(-(b - u) * w)) / (2.0 * w * (1.0 - self._q))

    def _dbeta(self, u: np.ndarray):
        return -0.5 * self._pair(u) / (1.0 - self._q) ** 2

    def _pair(self, u: np.ndarray):
        """e^{-(beta - u) omega0} + e^{-(beta + u) omega0}, which both
        beta-derivatives carry."""
        w, b = self.omega0, self.beta
        return _decay(-(b - u) * w) + _decay(-(b + u) * w)

    def _on_rule(self, rule: QuadratureRule):
        return self._value(rule.nodes), self._dbeta(rule.nodes)


class ContinuumBathCorrelation(CorrelationFn):
    """Bath correlator as a frequency integral against the spectral density.

    value:  (1/pi) int J(w) [e^{-u w} + e^{-(beta-u) w}] / (1 - e^{-beta w}) dw
    dbeta: -(1/pi) int J(w) w [e^{-(beta-u) w} + e^{-(beta+u) w}] / (1 - e^{-beta w})^2 dw

    It depends on (bath, beta, n_omega) alone, so :func:`bath_correlation`
    hands out one shared object per such key: its frequency ``rule`` and
    every array it holds or returns are read-only.

    Every evaluation is one table E[j, k] = e^{-s_j w_k} times the
    constructor's n_omega x 3 weights W = [v, d e^{-beta w}, d], with v and d
    the value and dbeta frequency weights of the two lines above.  With
    G = E W, value(u) = G(u, 0) + G(beta - u, 0) and
    dbeta(u) = -(G(u, 1) + G(beta - u, 2)).  For arbitrary u the rows s are
    u and beta - u; on an imaginary-time rule they are the nodes alone, as
    every ``quad_imaginary_time`` rule is mirror-symmetric about beta/2 and
    beta - u_j is node n-1-j (README "Numerical design notes").  ``value``
    and ``dbeta`` refuse a u outside [0, beta] (ValueError); the
    constructor's pair at u = 0 (<B^2>, d<B^2>/dbeta) and the node terms of
    a rule skip that check.  ``rule_terms`` keeps the node terms of the last
    rule, so every row at one beta shares one table on its nodes.
    """

    mean = 0.0  # a continuum coupling field has zero thermal mean by construction

    def __init__(self, bath: ContinuumBath, beta: float, n_omega: int = DEFAULT_FREQ_NODES):
        super().__init__(beta)
        self.bath = bath
        self.layer_width = 1.0 / bath.cutoff
        self.rule: QuadratureRule = quad_thermal_frequency(n_omega, bath.cutoff, self.beta)
        w = self._w = self.rule.nodes
        jw = spectral_density(bath, w) * self.rule.weights / np.pi
        em = self._em = _decay(-self.beta * w)  # e^{-beta w}
        v = jw / (1.0 - em)
        d = jw * w / (1.0 - em) ** 2
        dem = d * em
        dem[dem < np.finfo(float).tiny] = 0.0  # a subnormal moves no sum, and slows the product
        self._weights = np.stack((v, dem, d), axis=1)
        _read_only(w, self.rule.weights, em, self._weights)
        self._at_zero = self._mirrored(np.zeros(()))

    def value(self, u):
        return self.value_and_dbeta(u)[0]

    def dbeta(self, u):
        return self.value_and_dbeta(u)[1]

    def value_and_dbeta(self, u):
        """``value`` and ``dbeta`` at ``u``: the constructor's pair at u = 0,
        else a new evaluation of u and beta - u."""
        u = np.asarray(u, dtype=float)
        if not u.ndim and u == 0.0:
            return self._at_zero
        return self._mirrored(self._in_range(u))

    def _table(self, s: np.ndarray) -> np.ndarray:
        """G = E W with E[j, k] = e^{-s_j w_k}, shape (s.size, 3)."""
        return _decay(np.multiply.outer(-s, self._w)) @ self._weights

    @staticmethod
    def _sums(near: np.ndarray, far: np.ndarray):
        """``value`` and ``dbeta`` from the rows of G at u (``near``) and at
        beta - u (``far``)."""
        return near[:, 0] + far[:, 0], -(near[:, 1] + far[:, 2])

    def _mirrored(self, u: np.ndarray):
        """``value`` and ``dbeta`` from one table on the rows u, then beta - u."""
        flat = u.ravel()
        g = self._table(np.concatenate((flat, self.beta - flat)))
        val, dval = (c.reshape(u.shape) for c in self._sums(g[:flat.size], g[flat.size:]))
        if u.ndim:
            return _read_only(val, dval)
        return float(val), float(dval)

    def _on_rule(self, rule: QuadratureRule):
        """``value`` and ``dbeta`` from one table on the nodes alone, read
        forwards for u_j and backwards for beta - u_j.  A rule that is not its
        own mirror about beta/2 to ``_MIRROR_ULPS`` ulps of beta is refused
        (ValueError), as is one with a node below 0."""
        u = rule.nodes
        drift = float(np.max(np.abs((self.beta - u) - u[::-1])))
        if not (drift <= _MIRROR_ULPS * np.spacing(self.beta) and u.min() >= 0.0):
            raise ValueError(f"rule is not mirror-symmetric on [0, beta] at beta = {self.beta!r}: "
                             f"max |(beta - u_j) - u_(n-1-j)| = {drift:.3e}, "
                             f"least node {float(u.min())!r}")
        g = self._table(u)
        return self._sums(g, g[::-1])


def probe_correlation(probe: ProbeModel, beta: float) -> EigenbasisCorrelation:
    """Correlator of the probe coupling operator in its own thermal state, as
    the level sums of :class:`EigenbasisCorrelation` (every probe kind)."""
    return EigenbasisCorrelation(probe.decomp, probe.coupling, beta)


def bath_correlation(
    bath: ContinuumBath | DiscreteBath,
    beta: float,
    n_omega: int = DEFAULT_FREQ_NODES,
) -> CorrelationFn:
    """Correlator of the bath coupling operator in the bath thermal state: the
    one place a bath specification becomes a correlator (TypeError for
    anything but a ``ContinuumBath`` or ``DiscreteBath``).

    A correlator depends on its key alone, and one ``snr_bound``, every theta
    of a sweep or every coupling of a scaling check asks for the same one:
    equal keys share one correlator with read-only arrays from a small LRU
    cache.  A continuum key is (bath, beta, n_omega), and ``ContinuumBath`` is
    frozen, so an equal bath built afresh hits; a discrete key is (bath,
    beta), and ``DiscreteBath`` is equal only to itself, so only the same
    bath object hits.
    """
    if isinstance(bath, ContinuumBath):
        return _continuum_correlation(bath, float(beta), int(n_omega))
    if isinstance(bath, DiscreteBath):
        return _discrete_correlation(bath, float(beta))
    raise TypeError(f"unsupported bath specification: {type(bath).__name__}")


_continuum_correlation = lru_cache(maxsize=CACHE_SIZE)(ContinuumBathCorrelation)


@lru_cache(maxsize=CACHE_SIZE)
def _discrete_correlation(bath: DiscreteBath, beta: float) -> EigenbasisCorrelation:
    corr = EigenbasisCorrelation(bath.decomp, bath.coupling, beta)
    _read_only(corr.coupling_eig, corr.abs_sq)
    return corr
