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

import json
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import TruncationWarning
from .linalg import (
    CACHE_SIZE,
    QuadratureRule,
    SpectralDecomposition,
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


def _ladder(omega: float, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated harmonic mode: H = omega (n + 1/2) and the unit-mass position
    x = (a + a^dag) / sqrt(2 omega), both on the lowest ``n_levels`` Fock states."""
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
    """Evaluate J(omega) for a continuum bath (elementwise, omega >= 0)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
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

    def __reduce__(self):
        # unpickled arrays are writeable: a copy is built afresh through __post_init__
        return DiscreteBath, (self.hamiltonian, self.coupling)

    @cached_property
    def decomp(self) -> SpectralDecomposition:
        return _shared_spectrum(self.hamiltonian)[-1]


def bath_qubit(omega_b: float = 1.0) -> DiscreteBath:
    """Two-level bath H_B = omega_b sigma_z with transverse coupling sigma_x."""
    return DiscreteBath(omega_b * SIGMA_Z, SIGMA_X)


def bath_mode(omega_b: float = 1.0, n_levels: int = 20) -> DiscreteBath:
    """Single truncated bosonic mode with position-like coupling."""
    h, x = _ladder(omega_b, _level_count(n_levels, "n_levels", 1))
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


def _shared_spectrum(h: np.ndarray, *operators: np.ndarray) -> tuple:
    """``(h, *operators, eigendecompose(h))`` with every array read-only, for
    the per-Hamiltonian caches of the built-in probes and a discrete bath's
    ``decomp``."""
    decomp = eigendecompose(h)
    _read_only(h, *operators, decomp.evals, decomp.evecs, decomp._order)
    return (h, *operators, decomp)


@lru_cache(maxsize=CACHE_SIZE)
def _qubit_spectrum(epsilon: float) -> tuple:
    return _shared_spectrum(0.5 * epsilon * SIGMA_Z)


@lru_cache(maxsize=CACHE_SIZE)
def _oscillator_spectrum(omega0: float, n_trunc: int) -> tuple:
    return _shared_spectrum(*_ladder(omega0, n_trunc))


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
    kind: str = "custom",
) -> ProbeModel:
    h = require_hermitian(hamiltonian, name="probe Hamiltonian")
    s = require_hermitian(coupling, name="probe coupling")
    if h.shape != s.shape:
        raise ValueError("probe Hamiltonian and coupling must have equal shapes")
    return ProbeModel(
        kind=kind,
        hamiltonian=h,
        coupling=s,
        params={"dim": h.shape[0]},
        dim_exponent=dim_exponent,
        decomp=eigendecompose(h),
    )


def load_operator_pair(path: str | Path) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Read {"H": [[re, im], ...] row-major, "S": [...], "dim": d} from JSON.

    Entries are [re, im] pairs; returns (H, S, dim_exponent or None).  Parsing
    is strict: ``dim`` must be a positive integer, every entry a pair of
    finite real numbers, and ``dim_exponent``, if given, a finite number (no
    bool or string passes for a number).  A violation raises ValueError
    naming the file and the key.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object, got {type(data).__name__}")

    def is_number(x) -> bool:
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    def is_finite(x) -> bool:
        # NaN fails the comparison, and an int too large for a float is
        # refused without converting it
        return abs(x) <= sys.float_info.max

    d = data.get("dim")
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError(f"{path}: dim: expected a positive integer, got {d!r}")

    def build(key: str) -> np.ndarray:
        flat = data.get(key)
        if not isinstance(flat, list):
            raise ValueError(f"{path}: {key}: expected a list of [re, im] entries, got {flat!r}")
        if len(flat) != d * d:
            raise ValueError(f"{path}: {key}: expected {d * d} [re, im] entries, got {len(flat)}")
        for i, z in enumerate(flat):
            if not (isinstance(z, list) and len(z) == 2 and all(map(is_number, z))):
                raise ValueError(f"{path}: {key}[{i}]: expected a pair of real numbers, got {z!r}")
            if not all(map(is_finite, z)):
                raise ValueError(f"{path}: {key}[{i}]: non-finite entry {z!r}")
        arr = np.array([complex(re, im) for re, im in flat], dtype=complex)
        return arr.reshape(d, d)

    mu = data.get("dim_exponent")
    if mu is not None and not (is_number(mu) and is_finite(mu)):
        raise ValueError(f"{path}: dim_exponent: expected a finite number, got {mu!r}")
    return build("H"), build("S"), (None if mu is None else float(mu))


def paired_bath_exponent(dim_exponent: float | None) -> float:
    """The bath ``dim_exponent`` a = 1 - 2 mu that keeps J * S^2 an energy
    squared for a probe coupling of energy dimension mu (1 when mu is None)."""
    return 1.0 if dim_exponent is None else 1.0 - 2.0 * dim_exponent


def validate_dim_exponent(dim_exponent: float | None, bath: ContinuumBath) -> None:
    """Check the bath's dimension exponent against a probe coupling dimension."""
    if dim_exponent is None:
        return
    expected = paired_bath_exponent(dim_exponent)
    if abs(bath.dim_exponent - expected) > 1e-12:
        raise ValueError(
            f"bath dim_exponent {bath.dim_exponent} incompatible with probe "
            f"coupling dimension {dim_exponent} (expected {expected})"
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
    ``populations`` p, ``mean_energy`` <E>, ``dpopulations`` = -p (E - <E>),
    ``energy_var`` Var(E), ``d2populations`` = p ((E - <E>)^2 - Var(E)), and
    per block size k the lowest pair's factors.  The ``_thermal_levels`` LRU
    cache keeps one read-only record per (levels' bytes, beta)."""

    def __init__(self, levels: bytes, beta: float):
        self.beta = beta
        self.evals = e = np.frombuffer(levels)
        p = self.populations = gibbs_populations(e, beta)
        self.mean_energy = float(np.dot(p, e))
        centred = e - self.mean_energy
        self.dpopulations = -p * centred
        self.energy_var = float(np.dot(p, centred**2))
        self.d2populations = p * (centred**2 - self.energy_var)
        _read_only(p, self.dpopulations, self.d2populations)
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
    diagonal's kernel."""

    def __init__(self, rule: QuadratureRule, corr: CorrelationFn):
        self.rule = rule
        phi, dphi = (np.asarray(c, dtype=float) for c in corr.value_and_dbeta(rule.nodes))
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
    may be a column of frequencies, shape (n, 1), giving one row per mode."""

    def __init__(self, omega0, beta: float):
        super().__init__(beta)
        self.omega0 = w = np.asarray(omega0, dtype=float)
        if not np.all((0 < w) & (w < np.inf)):  # NaN too
            raise ValueError("oscillator frequency must be positive and finite")
        self._q = _decay(-self.beta * w)  # e^{-beta omega0} < 1

    def value(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        return (_decay(-u * w) + _decay(-(b - u) * w)) / (2.0 * w * (1.0 - self._q))

    def dbeta(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        pair = _decay(-(b - u) * w) + _decay(-(b + u) * w)
        return -0.5 * pair / (1.0 - self._q) ** 2

    def d2beta(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        pair = _decay(-(b - u) * w) + _decay(-(b + u) * w)
        return 0.5 * w * pair * (1.0 + self._q) / (1.0 - self._q) ** 3


class ContinuumBathCorrelation(CorrelationFn):
    """Bath correlator as a frequency integral against the spectral density.

    value:  (1/pi) int J(w) [e^{-u w} + e^{-(beta-u) w}] / (1 - e^{-beta w}) dw
    dbeta: -(1/pi) int J(w) w [e^{-(beta-u) w} + e^{-(beta+u) w}] / (1 - e^{-beta w})^2 dw

    It depends on (bath, beta, n_omega) alone, so :func:`bath_correlation`
    hands out one shared object per such key: its frequency ``rule`` and
    every array it holds or returns are read-only.  The constructor forms the
    per-beta frequency weights and the pair at u = 0 (<B^2>, d<B^2>/dbeta);
    ``rule_terms`` keeps the node terms of the last imaginary-time rule, so
    every row at one beta shares one table of value and dbeta on its nodes.
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
        self._value_weights = jw / (1.0 - em)
        self._dbeta_weights = jw * w / (1.0 - em) ** 2
        _read_only(w, self.rule.weights, em, self._value_weights, self._dbeta_weights)
        # at u = 0, e^{-u w} = 1 and e^{-(beta-u) w} = e^{-beta w}
        self._at_zero = (float((1.0 + em) @ self._value_weights),
                         float(-(em + em) @ self._dbeta_weights))

    def value(self, u):
        return self.value_and_dbeta(u)[0]

    def dbeta(self, u):
        return self.value_and_dbeta(u)[1]

    def value_and_dbeta(self, u):
        """``value`` and ``dbeta`` at ``u``: the constructor's pair at u = 0,
        else a new evaluation."""
        u = np.asarray(u, dtype=float)
        if not u.ndim and u == 0.0:
            return self._at_zero
        return self._evaluate(u)

    def _evaluate(self, u: np.ndarray):
        """``value`` and ``dbeta`` from two exponential tables, built in one
        buffer: e^{-u w} and e^{-(beta-u) w} serve both, and e^{-(beta+u) w}
        is e^{-u w} e^{-beta w}."""
        near, far = _decay(np.multiply.outer(-np.stack((u, self.beta - u)), self._w))
        val = (near + far) @ self._value_weights
        near *= self._em
        near += far
        dval = -(near @ self._dbeta_weights)
        if val.ndim:
            return _read_only(val, dval)
        return float(val), float(dval)


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
