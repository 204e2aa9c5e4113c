"""Seeded inputs for the benchmark workloads.

Each workload is one ``fctherm`` CLI subcommand run on a config that is
generated from the seed into a scratch directory, so the program only ever
sees generated inputs and the bundled ``configs/`` are never read.  A
workload also lists its points in the order the CLI evaluates them, so the
benchmark can time the same points through the library API.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("osc-continuum-report", "qubit-continuum-sweep", "oracle-scaling")

# Sizes of the measured workloads, and of the reduced variant the smoke test uses.
_SIZES = {
    False: {"osc_rows": 60, "qubit_betas": 50, "qubit_thetas": 4,
            "scaling_trunc": 10, "mode_levels": 10, "scaling_betas": 2, "scaling_gammas": 8},
    True: {"osc_rows": 5, "qubit_betas": 3, "qubit_thetas": 2,
           "scaling_trunc": 8, "mode_levels": 5, "scaling_betas": 1, "scaling_gammas": 5},
}


@dataclass(frozen=True)
class Workload:
    """A generated workload: CLI subcommand, config file and its points."""

    name: str
    command: str            # fctherm CLI subcommand
    config_path: str
    points: list            # report/sweep: [beta, gamma, theta|None]; scaling: [beta, gamma]

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self)), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Workload":
        return cls(**json.loads(path.read_text(encoding="utf-8")))


def import_program(root: Path):
    """Import ``fctherm`` and its CLI from ``root/src``, and only from there."""
    src = (Path(root) / "src").resolve()
    if not (src / "fctherm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fctherm sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    fctherm = importlib.import_module("fctherm")
    importlib.import_module("fctherm.cli")
    if not Path(fctherm.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fctherm was imported from {fctherm.__file__}, not from {src}")
    return fctherm


def _encode_matrix(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m, dtype=complex).ravel()]


def _log_grid(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [float(x) for x in np.logspace(math.log10(lo), math.log10(hi), n)]


def generate(name: str, seed: int, directory: Path, tiny: bool = False) -> Workload:
    """Write the config (and any bath file) for ``name`` into ``directory``.

    The same seed always gives byte-identical files.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name)])
    size = _SIZES[tiny]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / f"{name}.json"

    if name == "osc-continuum-report":
        # Endpoint jitter of +-0.005 decades keeps the sixth row from the top above
        # beta = 18.2, where the rows turn NaN, so every seed has six such rows.
        beta_min = 0.1 * 10 ** rng.uniform(-0.005, 0.005)
        beta_max = 30.0 * 10 ** rng.uniform(-0.005, 0.005)
        gamma = 0.1
        cfg = {
            "probe": {"kind": "oscillator", "params": {"omega0": 1.0}},
            "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0},
            "gamma": gamma,
            "beta_grid": {"min": beta_min, "max": beta_max, "n": size["osc_rows"],
                          "spacing": "log"},
            "quadrature": {"n_u": 64, "n_omega": 128},
        }
        points = [[b, gamma, None] for b in _log_grid(beta_min, beta_max, size["osc_rows"])]
        command = "report"
    elif name == "qubit-continuum-sweep":
        n_theta = size["qubit_thetas"]
        # one angle per stratum of (0, pi), kept away from the poles where sin(theta) -> 0
        thetas = [math.pi * (k + rng.uniform(0.15, 0.85)) / n_theta for k in range(n_theta)]
        gamma = 0.1
        cfg = {
            "probe": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": thetas[0]}},
            "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 1.0},
            "gamma": gamma,
            "beta_grid": {"min": 0.1, "max": 10.0, "n": size["qubit_betas"], "spacing": "log"},
            "quadrature": {"n_u": 64, "n_omega": 128},
            "sweep": {"axis": "theta", "values": thetas},
        }
        points = [[b, gamma, t] for b in _log_grid(0.1, 10.0, size["qubit_betas"]) for t in thetas]
        command = "sweep"
    else:
        # Below the omega_b = 0.5 resonance the Jacobi sweep count stays at 36-37 for
        # every gamma, and the gamma^4 coefficient of F - F_pert keeps clear of the
        # zero it crosses near beta ~ 1.2-1.4 for omega_b >= 0.65, where the fitted
        # slope leaves the [3.8, 4.2] window and the row reports FAIL.
        omega_b = float(rng.uniform(0.42, 0.48))
        n_beta = size["scaling_betas"]
        betas = sorted(float(b) for b in rng.uniform(0.8, 1.4, n_beta))
        if tiny:
            betas = [b + 0.4 for b in betas]  # the 8-level probe needs a colder state
        # one truncated bosonic mode, H = omega_b (k + 1/2), coupled through position
        levels = size["mode_levels"]
        k = np.arange(levels)
        x = np.diag(np.sqrt((k[:-1] + 1) / (2.0 * omega_b)), 1)
        bath_file = directory / f"{name}-bath.json"
        bath_file.write_text(json.dumps({
            "dim": levels,
            "H": _encode_matrix(np.diag(omega_b * (k + 0.5))),
            "S": _encode_matrix(x + x.T),
        }), encoding="utf-8")
        n_gamma = size["scaling_gammas"]
        cfg = {
            "probe": {"kind": "oscillator", "params": {"omega0": 1.0, "n_trunc": size["scaling_trunc"]}},
            "bath": {"kind": "discrete-file", "path": bath_file.name},
            "gamma": 0.05,
            "beta_grid": {"min": betas[0], "max": betas[-1], "n": n_beta},
            "quadrature": {"n_u": 64, "n_omega": 128},
            "scaling": {"gamma_min": 0.01, "gamma_max": 0.1, "n": n_gamma},
            # With the default step (1e-5 beta) the finite-difference state derivative
            # has a rounding trace of ~1e-10 at joint dimension 100, at the edge of
            # sld_solve's fixed 1e-10 trace test: about 1 (beta, gamma) point in 150
            # then exits 3.  A 4x larger step keeps it well inside; Richardson
            # refinement keeps the truncation error far below the gamma^4 signal.
            "tolerances": {"fd_step_rel": 4e-5},
        }
        gammas = [float(g) for g in np.logspace(-2, -1, n_gamma)]
        points = [[b, g] for b in betas for g in gammas]
        command = "scaling"

    config_path.write_text(json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8")
    return Workload(name=name, command=command, config_path=str(config_path), points=points)


def run_point(fctherm, cfg, workload: Workload, point) -> bool:
    """Evaluate one point through the public library API.

    report/sweep: ``build_probe`` + ``build_bath`` + ``snr_bound``, the library
    call behind one CSV row.  scaling: the exact-oracle and perturbative calls
    behind one (beta, gamma) point.  Returns whether every reported number is
    finite.
    """
    tol = cfg.tolerances()
    if workload.command in ("report", "sweep"):
        beta, gamma, theta = point
        probe = cfg.build_probe(beta=beta, theta=theta)
        bath = cfg.build_bath()
        rep = fctherm.snr_bound(probe, bath, gamma, beta, cfg.n_u, cfg.n_omega, tol)
        values = (rep.f0, rep.f2, rep.i2, rep.xi, rep.snr_sq_pert,
                  rep.x01.real, rep.x01.imag, rep.alpha01.real, rep.alpha01.imag)
        return all(math.isfinite(v) for v in values)
    beta, gamma = point
    probe = cfg.build_probe(beta=beta)
    bath = cfg.build_bath()
    joint = fctherm.JointModel(probe, bath, gamma)
    f, i = fctherm.exact_fishers(joint, beta, tol=tol)
    reduced = fctherm.exact_mfg(joint, beta, tol)
    predicted = fctherm.mfg_second_order(probe, bath, gamma, beta, cfg.n_u, cfg.n_omega, tol)
    dist = fctherm.trace_distance(reduced, predicted.state)
    return all(math.isfinite(v) for v in (f, i, dist))
