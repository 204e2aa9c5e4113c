"""Probe models, bath models, and imaginary-time correlation functions.

Conventions
-----------
All correlators are thermal autocorrelation functions of a coupling operator
evaluated at imaginary time -i*u with 0 <= u <= beta (hbar = k_B = 1):

    C(u) = < A(-i u) A >_thermal = sum_{n,k} p_n |A_nk|^2 exp(-u (E_k - E_n)).

They are uncentred; a zero-mean coupling is an *assumption* of the weak
coupling machinery, tracked separately via ``mean_coupling``.  Every closed
form below is written with non-positive exponents only, so nothing overflows
at large beta or large frequency.

Each correlator exposes ``value``, ``dbeta`` and ``d2beta`` (derivatives at
fixed u with respect to inverse temperature); ``d2beta`` may raise
``NotImplementedError`` where it is never needed.  ``value_and_dbeta``
returns the first two together, so a correlator can share work between them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import TruncationWarning
from .linalg import (
    QuadratureRule,
    SpectralDecomposition,
    eigendecompose,
    gibbs_populations,
    quad_thermal_frequency,
    require_hermitian,
)
from .tolerances import DEFAULT_TOL, Tolerances

DEFAULT_FREQ_NODES = 128  # semi-infinite rule size for continuum baths
OSCILLATOR_MIN_LEVELS = 40  # smallest automatic oscillator truncation

# Pauli matrices shared by the two-level models (read-only, so sharing is safe)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z.flags.writeable = SIGMA_X.flags.writeable = False


def _ladder(omega: float, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated harmonic mode: H = omega (n + 1/2) and the unit-mass position
    x = (a + a^dag) / sqrt(2 omega), both on the lowest ``n_levels`` Fock states."""
    k = np.arange(n_levels)
    h = np.diag(omega * (k + 0.5)).astype(complex)
    x = np.zeros((n_levels, n_levels), dtype=complex)
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
        if self.s <= 0:
            raise ValueError("low-frequency exponent s must be positive")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")


def spectral_density(bath: ContinuumBath, omega):
    """Evaluate J(omega) for a continuum bath (elementwise, omega >= 0)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("spectral density is defined on omega >= 0")
    return bath.cutoff ** (bath.dim_exponent - bath.s) * w**bath.s * np.exp(-w / bath.cutoff)


@dataclass
class DiscreteBath:
    """A finite-dimensional bath given by its Hamiltonian and coupling operator."""

    hamiltonian: np.ndarray
    coupling: np.ndarray
    label: str = "discrete"
    _decomp: SpectralDecomposition | None = field(default=None, repr=False)

    def __post_init__(self):
        self.hamiltonian = require_hermitian(self.hamiltonian, name="bath Hamiltonian")
        self.coupling = require_hermitian(self.coupling, name="bath coupling")
        if self.hamiltonian.shape != self.coupling.shape:
            raise ValueError("bath Hamiltonian and coupling must have equal shapes")

    @property
    def decomp(self) -> SpectralDecomposition:
        if self._decomp is None:
            self._decomp = eigendecompose(self.hamiltonian)
        return self._decomp


def bath_qubit(omega_b: float = 1.0) -> DiscreteBath:
    """Two-level bath H_B = omega_b sigma_z with transverse coupling sigma_x."""
    return DiscreteBath(omega_b * SIGMA_Z, SIGMA_X, label="bath-qubit")


def bath_mode(omega_b: float = 1.0, n_levels: int = 20) -> DiscreteBath:
    """Single truncated bosonic mode with position-like coupling."""
    h, x = _ladder(omega_b, n_levels)
    return DiscreteBath(h, x, label="bath-mode")


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


def probe_qubit(epsilon: float = 1.0, theta: float = 0.0) -> ProbeModel:
    """Two-level probe H = (epsilon/2) sigma_z coupled through
    cos(theta) sigma_z - sin(theta) sigma_x."""
    if epsilon <= 0:
        raise ValueError("level splitting must be positive")
    h = 0.5 * epsilon * SIGMA_Z
    s = np.cos(theta) * SIGMA_Z - np.sin(theta) * SIGMA_X
    return ProbeModel(
        kind="qubit",
        hamiltonian=h,
        coupling=s,
        params={"epsilon": epsilon, "theta": theta},
        dim_exponent=PROBE_DIM_EXPONENTS["qubit"],
        decomp=eigendecompose(h),
    )


def oscillator_levels(omega0: float, beta: float, tail: float = DEFAULT_TOL.tail_population) -> int:
    """Smallest truncation, at least ``OSCILLATOR_MIN_LEVELS``, with top-level
    thermal population below ``tail``."""
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
    """
    if omega0 <= 0:
        raise ValueError("oscillator frequency must be positive")
    if n_trunc is None:
        n_trunc = (OSCILLATOR_MIN_LEVELS if beta_design is None
                   else oscillator_levels(omega0, beta_design, tail))
    else:
        n_trunc = int(n_trunc)
        if n_trunc < 2:
            raise ValueError("oscillator truncation needs at least two levels")
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
    h, x = _ladder(omega0, n_trunc)
    return ProbeModel(
        kind="oscillator",
        hamiltonian=h,
        coupling=x,
        params={"omega0": omega0, "n_trunc": n_trunc},
        dim_exponent=PROBE_DIM_EXPONENTS["oscillator"],
        decomp=eigendecompose(h),
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

    Entries are [re, im] pairs; returns (H, S, dim_exponent or None).
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    d = int(data["dim"])

    def build(key: str) -> np.ndarray:
        flat = data[key]
        if len(flat) != d * d:
            raise ValueError(f"{key}: expected {d * d} [re, im] entries, got {len(flat)}")
        arr = np.array([complex(re, im) for re, im in flat], dtype=complex)
        return arr.reshape(d, d)

    mu = data.get("dim_exponent")
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


def validate_pairing(probe: ProbeModel, bath: ContinuumBath) -> None:
    """Check the bath's dimension exponent against the probe coupling dimension."""
    validate_dim_exponent(probe.dim_exponent, bath)


# ----------------------------------------------------------------------------
# correlation functions
# ----------------------------------------------------------------------------


class CorrelationFn:
    """Interface: thermal autocorrelation of a coupling operator at -i*u."""

    beta: float
    # Width of the algebraic boundary layer the correlator develops next to
    # u = 0 and u = beta (inverse frequency cutoff); None when the correlator
    # is smooth on the scale of beta.  Quadrature builders grade their panels
    # to this scale.
    layer_width: float | None = None

    def value(self, u):
        raise NotImplementedError

    def dbeta(self, u):
        raise NotImplementedError

    def d2beta(self, u):
        raise NotImplementedError

    def value_and_dbeta(self, u):
        """``(value(u), dbeta(u))``; overridden where the two share work."""
        return self.value(u), self.dbeta(u)


class EigenbasisCorrelation(CorrelationFn):
    """Correlator evaluated as an explicit double sum over energy levels.

    This is the exact level-sum form used by the expansion machinery: using it
    there makes trace identities hold to rounding even for truncated spectra.
    It owns the level data those sums need: the rotated coupling
    ``coupling_eig``, the Gibbs ``populations`` and their beta-derivative
    ``dpopulations = -p (E - <E>)``, and the per-level sums ``sigma(u)``; it
    keeps the ``decomp`` it was built from for rotating back.
    """

    def __init__(self, decomp: SpectralDecomposition, coupling: np.ndarray, beta: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.beta = float(beta)
        self.decomp = decomp
        self.evals = decomp.evals
        self.coupling_eig = decomp.to_eigenbasis(coupling)
        self.abs_sq = np.abs(self.coupling_eig) ** 2
        self.populations, self.log_z = gibbs_populations(self.evals, beta)
        self.mean_energy = float(np.dot(self.populations, self.evals))
        self.dpopulations = -self.populations * (self.evals - self.mean_energy)
        self.energy_var = float(
            np.dot(self.populations, (self.evals - self.mean_energy) ** 2)
        )
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
        centered = self.evals - self.mean_energy
        w = self.populations * (centered**2 - self.energy_var)
        return self._weighted(u, w)


class QubitCorrelation(CorrelationFn):
    """Closed-form correlator of the two-level probe."""

    def __init__(self, epsilon: float, theta: float, beta: float):
        self.epsilon = epsilon
        self.theta = theta
        self.beta = beta
        self._c = 0.5 * beta * epsilon

    def _ratios(self, u):
        # sinh(a)/cosh(c), cosh(a)/cosh(c), tanh(c), all with exponents <= 0
        a = self.epsilon * np.asarray(u, dtype=float) - self._c
        c = abs(self._c)
        ep = np.exp(a - c)
        em = np.exp(-a - c)
        den = 1.0 + np.exp(-2.0 * c)
        r_sinh = (ep - em) / den
        r_cosh = (ep + em) / den
        th = np.sign(self._c) * (1.0 - np.exp(-2.0 * c)) / den
        return r_sinh, r_cosh, th

    def value(self, u):
        _, r_cosh, _ = self._ratios(u)
        return np.cos(self.theta) ** 2 + np.sin(self.theta) ** 2 * r_cosh

    def dbeta(self, u):
        r_sinh, r_cosh, th = self._ratios(u)
        return -0.5 * self.epsilon * np.sin(self.theta) ** 2 * (r_sinh + th * r_cosh)

    def d2beta(self, u):
        r_sinh, r_cosh, th = self._ratios(u)
        return 0.5 * self.epsilon**2 * np.sin(self.theta) ** 2 * th * (r_sinh + th * r_cosh)


class OscillatorCorrelation(CorrelationFn):
    """Closed-form position autocorrelation of the harmonic probe."""

    def __init__(self, omega0: float, beta: float):
        self.omega0 = omega0
        self.beta = beta
        self._q = np.exp(-beta * omega0)  # e^{-beta omega0} < 1

    def value(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        return (np.exp(-u * w) + np.exp(-(b - u) * w)) / (2.0 * w * (1.0 - self._q))

    def dbeta(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        pair = np.exp(-(b - u) * w) + np.exp(-(b + u) * w)
        return -0.5 * pair / (1.0 - self._q) ** 2

    def d2beta(self, u):
        w, b = self.omega0, self.beta
        u = np.asarray(u, dtype=float)
        pair = np.exp(-(b - u) * w) + np.exp(-(b + u) * w)
        return 0.5 * w * pair * (1.0 + self._q) / (1.0 - self._q) ** 3


class ContinuumBathCorrelation(CorrelationFn):
    """Bath correlator as a frequency integral against the spectral density.

    value:  (1/pi) int J(w) [e^{-u w} + e^{-(beta-u) w}] / (1 - e^{-beta w}) dw
    dbeta: -(1/pi) int J(w) w [e^{-(beta-u) w} + e^{-(beta+u) w}] / (1 - e^{-beta w})^2 dw
    """

    mean = 0.0  # a continuum coupling field has zero thermal mean by construction

    def __init__(self, bath: ContinuumBath, beta: float, n_omega: int = DEFAULT_FREQ_NODES):
        if beta <= 0:
            raise ValueError("beta must be positive")
        self.bath = bath
        self.beta = beta
        self.layer_width = 1.0 / bath.cutoff
        self.rule: QuadratureRule = quad_thermal_frequency(n_omega, bath.cutoff, beta)
        self._w = self.rule.nodes
        self._jw = spectral_density(bath, self._w) * self.rule.weights / np.pi
        self._em = np.exp(-beta * self._w)  # e^{-beta w}

    def value(self, u):
        u = np.asarray(u, dtype=float)
        w = self._w
        num = np.exp(-np.multiply.outer(u, w)) + np.exp(-np.multiply.outer(self.beta - u, w))
        out = num @ (self._jw / (1.0 - self._em))
        return out if out.ndim else float(out)

    def dbeta(self, u):
        return self.value_and_dbeta(u)[1]

    def value_and_dbeta(self, u):
        """``value`` and ``dbeta`` from two exponential tables: e^{-u w} and
        e^{-(beta-u) w} serve both, and e^{-(beta+u) w} is e^{-u w} e^{-beta w}."""
        u = np.asarray(u, dtype=float)
        w = self._w
        near = np.exp(-np.multiply.outer(u, w))
        far = np.exp(-np.multiply.outer(self.beta - u, w))
        val = (near + far) @ (self._jw / (1.0 - self._em))
        dval = -(far + near * self._em) @ (self._jw * w / (1.0 - self._em) ** 2)
        if val.ndim:
            return val, dval
        return float(val), float(dval)

    def d2beta(self, u):
        raise NotImplementedError("second beta-derivative of the bath correlator is unused")

    def mean_square(self) -> float:
        """<B^2> = value at u = 0 (useful as a coupling-strength diagnostic)."""
        return float(self.value(0.0))


def probe_correlation(
    probe: ProbeModel, beta: float, form: str = "eigenbasis"
) -> CorrelationFn:
    """Correlator of the probe coupling operator in its own thermal state.

    ``form="eigenbasis"`` works for every probe; ``form="closed"`` returns the
    closed-form object for the built-in probe kinds and raises otherwise.
    """
    if form == "eigenbasis":
        return EigenbasisCorrelation(probe.decomp, probe.coupling, beta)
    if form == "closed":
        if probe.kind == "qubit":
            return QubitCorrelation(probe.params["epsilon"], probe.params["theta"], beta)
        if probe.kind == "oscillator":
            return OscillatorCorrelation(probe.params["omega0"], beta)
        raise ValueError(f"no closed-form correlator for probe kind {probe.kind!r}")
    raise ValueError(f"unknown correlator form {form!r}")


def bath_correlation(
    bath: ContinuumBath | DiscreteBath,
    beta: float,
    n_omega: int = DEFAULT_FREQ_NODES,
) -> CorrelationFn:
    """Correlator of the bath coupling operator in the bath thermal state."""
    if isinstance(bath, ContinuumBath):
        return ContinuumBathCorrelation(bath, beta, n_omega)
    return EigenbasisCorrelation(bath.decomp, bath.coupling, beta)


def mean_coupling(bath: ContinuumBath | DiscreteBath, beta: float) -> float:
    """Thermal mean of the bath coupling operator.

    Zero by construction for the continuum family (linear in mode operators).
    """
    if isinstance(bath, ContinuumBath):
        return 0.0
    corr = EigenbasisCorrelation(bath.decomp, bath.coupling, beta)
    return corr.mean


def zero_mean_ok(
    bath: ContinuumBath | DiscreteBath, beta: float, tol: Tolerances = DEFAULT_TOL
) -> bool:
    """Whether the bath coupling satisfies the zero-mean assumption."""
    return abs(mean_coupling(bath, beta)) <= tol.assumption_mean
