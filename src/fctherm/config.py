"""Run configuration: a single JSON document describing probe, bath, and grids.

The schema is deliberately small and flat (see README for the full field
list).  Parsing is strict: unknown keys, missing required fields, and
out-of-domain values all raise :class:`ConfigError` with the dotted path of
the offending field, so a misconfigured batch job fails before any numerics
start.  Parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, TruncationWarning
from .linalg import _read_only
from .models import (
    DEFAULT_FREQ_NODES,
    PROBE_DIM_EXPONENTS,
    ContinuumBath,
    DiscreteBath,
    ProbeModel,
    load_operator_pair,
    oscillator_levels,
    paired_bath_exponent,
    probe_custom,
    probe_oscillator,
    probe_qubit,
    validate_dim_exponent,
)
from .perturbation import DEFAULT_TIME_NODES
from .tolerances import DEFAULT_TOL, TOLERANCE_FIELDS, Tolerances

PROBE_KINDS = ("qubit", "oscillator", "custom-matrix-file")
BATH_KINDS = ("ohmic", "discrete-file")
SPACINGS = ("linear", "log")
SWEEP_AXES = ("gamma", "theta")

# default coupling window and size of an order-fit grid (see default_gamma_grid)
DEFAULT_GAMMA_MIN = 1e-2
DEFAULT_GAMMA_MAX = 1e-1
DEFAULT_GAMMA_POINTS = 8

# Largest sizes a config may ask for (README, config schema): numpy builds an
# n-node Gauss-Legendre rule from an n x n matrix, so n_u and n_omega (whose
# cold infrared panel has n_omega // 2 nodes) cost O(n^2) memory, and an
# oscillator probe's matrices O(n_trunc^2); at each bound one expansion takes
# one to two seconds and about 200 MiB.
MAX_TIME_NODES = 2048
MAX_FREQ_NODES = 4096
MAX_OSCILLATOR_LEVELS = 1024
MAX_GRID_POINTS = 1000


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path: str, positive: bool = False, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and v <= 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    if nonnegative and v < 0:
        raise ConfigError(f"{path}: must be >= 0, got {value!r}")
    return v


def _expect_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return int(value)


def _expect_choice(value, path: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {', '.join(choices)}; got {value!r}")
    return value


def _reject_unknown(mapping: dict, path: str, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"{path}: unknown field(s) {', '.join(extra)}")


@dataclass(frozen=True)
class GridSpec:
    """A one-dimensional parameter grid."""

    min: float
    max: float
    n: int
    spacing: str = "linear"

    def points(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self.min])
        if self.spacing == "log":
            return np.logspace(math.log10(self.min), math.log10(self.max), self.n)
        return np.linspace(self.min, self.max, self.n)


def default_gamma_grid(
    n: int = DEFAULT_GAMMA_POINTS, lo: float = DEFAULT_GAMMA_MIN, hi: float = DEFAULT_GAMMA_MAX
) -> np.ndarray:
    """Log-spaced couplings for order fits.

    The default window keeps fourth-order deviations (gamma^4 >= 1e-8) far
    above rounding; above ~1e-1 higher orders contaminate the fit.
    """
    return GridSpec(lo, hi, n, "log").points()


@dataclass(frozen=True)
class SweepSpec:
    """Second sweep axis: either an explicit value list or a grid."""

    axis: str
    values: tuple[float, ...] | None = None
    grid: GridSpec | None = None

    def points(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        return self.grid.points()


@dataclass(frozen=True)
class RunConfig:
    probe_kind: str
    probe_params: dict
    bath_kind: str
    bath_params: dict
    gamma: float
    beta_grid: GridSpec
    n_u: int = DEFAULT_TIME_NODES
    n_omega: int = DEFAULT_FREQ_NODES
    tolerance_overrides: dict = field(default_factory=dict)
    output: str | None = None
    sweep: SweepSpec | None = None
    scaling: GridSpec = GridSpec(DEFAULT_GAMMA_MIN, DEFAULT_GAMMA_MAX, DEFAULT_GAMMA_POINTS, "log")
    base_dir: str | None = None  # directory the config was read from, for relative paths

    # -- materialisation ----------------------------------------------------
    #
    # What belongs to the config alone is built once, on first use, and kept
    # on the config: the tolerances, the operator files (each read once; one
    # edited afterwards is not read again), the bath and a custom probe.
    # Every grid point then shares them; a built-in probe, which depends on
    # the grid point, is built per call from the models' own caches.

    def tolerances(self) -> Tolerances:
        return self._tolerances

    @cached_property
    def _tolerances(self) -> Tolerances:
        return DEFAULT_TOL.replaced(**self.tolerance_overrides)

    def _resolve(self, path: str) -> str:
        p = Path(path)
        if not p.is_absolute() and self.base_dir:
            p = Path(self.base_dir) / p
        return str(p)

    @cached_property
    def _probe_operators(self) -> tuple:
        return load_operator_pair(self._resolve(self.probe_params["path"]))

    @cached_property
    def _custom_probe(self) -> ProbeModel:
        h, s, mu = self._probe_operators
        probe = probe_custom(h, s, dim_exponent=mu)
        # shared by every grid point, like a built-in probe's spectrum
        _read_only(probe.hamiltonian, probe.coupling, probe.decomp.evals,
                   probe.decomp.evecs, probe.decomp._order)
        return probe

    def __getstate__(self) -> dict:
        # unpickled arrays are writeable: a copy rebuilds its custom probe from the operators
        return {k: v for k, v in self.__dict__.items() if k != "_custom_probe"}

    def build_probe(self, beta: float | None = None, theta: float | None = None) -> ProbeModel:
        """Instantiate the probe, possibly specialised to a grid point.

        ``beta`` sizes the oscillator truncation, or checks the ``n_trunc``
        pinned in the config, at that inverse temperature; ``theta`` overrides
        the qubit coupling angle during sweeps.  A custom-matrix-file probe
        depends on neither: every call returns the same read-only probe.
        """
        params = dict(self.probe_params)
        if self.probe_kind == "qubit":
            if theta is not None:
                params["theta"] = theta
            return probe_qubit(**params)
        if self.probe_kind == "oscillator":
            return probe_oscillator(**params, beta_design=beta,
                                    tail=self.tolerances().tail_population)
        return self._custom_probe

    def probe_dim_exponent(self) -> float | None:
        """Energy dimension of the probe coupling, read without building the probe."""
        if self.probe_kind in PROBE_DIM_EXPONENTS:
            return PROBE_DIM_EXPONENTS[self.probe_kind]
        return self._probe_operators[2]

    def build_bath(self) -> ContinuumBath | DiscreteBath:
        """The run's bath: built on the first call, and that one object on
        every later call (read-only, so sharing it is safe)."""
        return self._bath

    @cached_property
    def _bath(self) -> ContinuumBath | DiscreteBath:
        if self.bath_kind == "ohmic":
            mu = self.probe_dim_exponent()
            a = self.bath_params.get("a", paired_bath_exponent(mu))
            bath = ContinuumBath(
                s=self.bath_params["s"], cutoff=self.bath_params["Omega"], dim_exponent=a
            )
            validate_dim_exponent(mu, bath)
            return bath
        h, b, _ = load_operator_pair(self._resolve(self.bath_params["path"]))
        return DiscreteBath(h, b)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "probe": {"kind": self.probe_kind, "params": dict(self.probe_params)},
            "bath": {"kind": self.bath_kind, **dict(self.bath_params)},
            "gamma": self.gamma,
            "beta_grid": {
                "min": self.beta_grid.min,
                "max": self.beta_grid.max,
                "n": self.beta_grid.n,
                "spacing": self.beta_grid.spacing,
            },
            "quadrature": {"n_u": self.n_u, "n_omega": self.n_omega},
            "scaling": {"gamma_min": self.scaling.min, "gamma_max": self.scaling.max,
                        "n": self.scaling.n},
        }
        if self.tolerance_overrides:
            out["tolerances"] = dict(self.tolerance_overrides)
        if self.output is not None:
            out["output"] = self.output
        if self.sweep is not None:
            sw: dict = {"axis": self.sweep.axis}
            if self.sweep.values is not None:
                sw["values"] = list(self.sweep.values)
            else:
                g = self.sweep.grid
                sw.update({"min": g.min, "max": g.max, "n": g.n, "spacing": g.spacing})
            out["sweep"] = sw
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _parse_grid(raw, path: str, positive_min: bool) -> GridSpec:
    raw = _expect_mapping(raw, path)
    _reject_unknown(raw, path, ("min", "max", "n", "spacing"))
    for key in ("min", "max", "n"):
        if key not in raw:
            raise ConfigError(f"{path}.{key}: required")
    spacing = _expect_choice(raw.get("spacing", "linear"), f"{path}.spacing", SPACINGS)
    lo = _expect_number(raw["min"], f"{path}.min", positive=(spacing == "log") or positive_min)
    hi = _expect_number(raw["max"], f"{path}.max", positive=(spacing == "log") or positive_min)
    n = _expect_int(raw["n"], f"{path}.n", minimum=1, maximum=MAX_GRID_POINTS)
    if hi < lo:
        raise ConfigError(f"{path}: max must be >= min")
    if n > 1 and hi == lo:
        raise ConfigError(f"{path}: max must exceed min for n > 1")
    return GridSpec(min=lo, max=hi, n=n, spacing=spacing)


def _parse_probe(raw) -> tuple[str, dict]:
    raw = _expect_mapping(raw, "probe")
    _reject_unknown(raw, "probe", ("kind", "params"))
    kind = _expect_choice(raw.get("kind"), "probe.kind", PROBE_KINDS)
    params = _expect_mapping(raw.get("params", {}), "probe.params")
    if kind == "qubit":
        _reject_unknown(params, "probe.params", ("epsilon", "theta"))
        if "epsilon" in params:
            _expect_number(params["epsilon"], "probe.params.epsilon", positive=True)
        if "theta" in params:
            _expect_number(params["theta"], "probe.params.theta")
    elif kind == "oscillator":
        _reject_unknown(params, "probe.params", ("omega0", "n_trunc"))
        if "omega0" in params:
            _expect_number(params["omega0"], "probe.params.omega0", positive=True)
        if "n_trunc" in params and params["n_trunc"] is not None:
            _expect_int(params["n_trunc"], "probe.params.n_trunc", minimum=2,
                        maximum=MAX_OSCILLATOR_LEVELS)
    else:
        _reject_unknown(params, "probe.params", ("path",))
        if "path" not in params:
            raise ConfigError("probe.params.path: required for custom-matrix-file")
    return kind, dict(params)


def _parse_bath(raw) -> tuple[str, dict]:
    raw = _expect_mapping(raw, "bath")
    kind = _expect_choice(raw.get("kind"), "bath.kind", BATH_KINDS)
    if kind == "ohmic":
        _reject_unknown(raw, "bath", ("kind", "s", "Omega", "a"))
        for key in ("s", "Omega"):
            if key not in raw:
                raise ConfigError(f"bath.{key}: required for an ohmic-family bath")
        params = {
            "s": _expect_number(raw["s"], "bath.s", positive=True),
            "Omega": _expect_number(raw["Omega"], "bath.Omega", positive=True),
        }
        if "a" in raw:
            params["a"] = _expect_number(raw["a"], "bath.a")
        return kind, params
    _reject_unknown(raw, "bath", ("kind", "path"))
    if "path" not in raw:
        raise ConfigError("bath.path: required for a discrete-file bath")
    return kind, {"path": raw["path"]}


def parse_config(raw: dict, base_dir: str | None = None) -> RunConfig:
    """Validate a decoded JSON document and return a RunConfig."""
    raw = _expect_mapping(raw, "config")
    _reject_unknown(
        raw,
        "config",
        (
            "probe",
            "bath",
            "gamma",
            "beta_grid",
            "quadrature",
            "tolerances",
            "output",
            "sweep",
            "scaling",
        ),
    )
    for key in ("probe", "bath", "gamma", "beta_grid"):
        if key not in raw:
            raise ConfigError(f"{key}: required")
    probe_kind, probe_params = _parse_probe(raw["probe"])
    bath_kind, bath_params = _parse_bath(raw["bath"])
    gamma = _expect_number(raw["gamma"], "gamma", nonnegative=True)
    beta_grid = _parse_grid(raw["beta_grid"], "beta_grid", positive_min=True)

    quad = _expect_mapping(raw.get("quadrature", {}), "quadrature")
    _reject_unknown(quad, "quadrature", ("n_u", "n_omega"))
    n_u = _expect_int(quad.get("n_u", DEFAULT_TIME_NODES), "quadrature.n_u",
                      minimum=1, maximum=MAX_TIME_NODES)
    n_omega = _expect_int(quad.get("n_omega", DEFAULT_FREQ_NODES), "quadrature.n_omega",
                          minimum=1, maximum=MAX_FREQ_NODES)

    overrides = _expect_mapping(raw.get("tolerances", {}), "tolerances")
    for key, value in overrides.items():
        if key not in TOLERANCE_FIELDS:
            raise ConfigError(f"tolerances.{key}: unknown tolerance name")
        _expect_number(value, f"tolerances.{key}")

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError(f"output: expected a path string, got {output!r}")

    sweep = None
    if "sweep" in raw:
        sw = _expect_mapping(raw["sweep"], "sweep")
        axis = _expect_choice(sw.get("axis"), "sweep.axis", SWEEP_AXES)
        if axis == "theta" and probe_kind != "qubit":
            raise ConfigError("sweep.axis: theta sweeps require a qubit probe")
        if "values" in sw:
            _reject_unknown(sw, "sweep", ("axis", "values"))
            vals = sw["values"]
            if not isinstance(vals, list) or not vals:
                raise ConfigError("sweep.values: expected a non-empty list")
            values = tuple(
                _expect_number(v, f"sweep.values[{i}]", nonnegative=(axis == "gamma"))
                for i, v in enumerate(vals)
            )
            sweep = SweepSpec(axis=axis, values=values)
        else:
            _reject_unknown(sw, "sweep", ("axis", "min", "max", "n", "spacing"))
            grid_raw = {k: v for k, v in sw.items() if k != "axis"}
            grid = _parse_grid(grid_raw, "sweep", positive_min=(axis == "gamma"))
            sweep = SweepSpec(axis=axis, grid=grid)

    sc = _expect_mapping(raw.get("scaling", {}), "scaling")
    _reject_unknown(sc, "scaling", ("gamma_min", "gamma_max", "n"))
    scaling = GridSpec(
        min=_expect_number(sc.get("gamma_min", DEFAULT_GAMMA_MIN), "scaling.gamma_min",
                           positive=True),
        max=_expect_number(sc.get("gamma_max", DEFAULT_GAMMA_MAX), "scaling.gamma_max",
                           positive=True),
        n=_expect_int(sc.get("n", DEFAULT_GAMMA_POINTS), "scaling.n", minimum=5,
                      maximum=MAX_GRID_POINTS),
        spacing="log",
    )
    if scaling.max <= scaling.min:
        raise ConfigError("scaling: gamma_max must exceed gamma_min")

    cfg = RunConfig(
        probe_kind=probe_kind,
        probe_params=probe_params,
        bath_kind=bath_kind,
        bath_params=bath_params,
        gamma=gamma,
        beta_grid=beta_grid,
        n_u=n_u,
        n_omega=n_omega,
        tolerance_overrides=dict(overrides),
        output=output,
        sweep=sweep,
        scaling=scaling,
        base_dir=base_dir,
    )
    # materialisation errors (bad matrix files, dimension mismatches) should
    # surface as configuration problems, not numerical ones; the probe is
    # checked at the hottest grid point, where a fixed truncation is tightest.
    # Its truncation warning is left to the commands, which build the probe
    # again at that point and know whether truncation error can matter.
    try:
        tol = cfg.tolerances()
        if probe_kind == "oscillator" and probe_params.get("n_trunc") is None:
            # the automatic truncation is largest at the hottest grid point
            omega0 = probe_params.get("omega0", 1.0)  # probe_oscillator's default
            levels = oscillator_levels(omega0, beta_grid.min, tol.tail_population)
            if levels > MAX_OSCILLATOR_LEVELS:
                raise ConfigError(
                    f"probe.params.n_trunc: the truncation sized at beta_grid.min = "
                    f"{beta_grid.min} needs {levels} levels, more than "
                    f"{MAX_OSCILLATOR_LEVELS}; raise beta_grid.min or omega0"
                )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            cfg.build_probe(beta=beta_grid.min)
        cfg.build_bath()
    except ConfigError:
        raise
    except (OSError, KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"config: failed to materialise model: {exc}") from exc
    return cfg


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {p}: {exc}") from exc
    return parse_config(raw, base_dir=str(p.parent))
