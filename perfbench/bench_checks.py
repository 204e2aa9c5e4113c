"""Correctness gate for the CSV files a workload's CLI runs write.

It runs outside every timed phase.  A point counts as failed when its row
holds a non-finite field, or when it fails the gate:

* report/sweep rows: F2 from the integral route (the CSV's ``F2``), ``I2``,
  F2 from the level-sum route (``qfi_perturbative_sum``) and
  ``xi_via_spectral_kernel / beta^2`` must agree to ``ROUTE_RTOL`` relative
  to the largest of the four;
* scaling rows: every fitted slope must report ``PASS``; each failing row
  fails the (beta, gamma) points of its beta.

A non-finite row is a visible failure of the program.  A finite row that
fails the gate is a wrong answer, so it also clears ``correct``.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

ROUTE_RTOL = 1e-9  # the four routes agree to <= 6e-13 on the current code


@dataclass
class GateResult:
    points: int = 0
    nonfinite: int = 0              # points whose row has a non-finite field
    wrong: int = 0                  # finite points that failed the gate
    worst_route_rel: float = 0.0    # largest relative route disagreement seen
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.nonfinite + self.wrong

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_rows(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def route_values(fctherm, cfg, point, f2: float, i2: float) -> list[float]:
    """F2 by the four routes for one continuum point (first two from the CSV)."""
    beta, _, theta = point
    probe = cfg.build_probe(beta=beta, theta=theta)
    bath = cfg.build_bath()
    _, f2_sum = fctherm.qfi_perturbative_sum(probe, bath, beta, cfg.n_u, cfg.n_omega,
                                             cfg.tolerances())
    xi_kernel = fctherm.xi_via_spectral_kernel(probe, bath, beta, cfg.n_u, cfg.n_omega)
    return [f2, i2, f2_sum, xi_kernel / beta**2]


def gate(fctherm, cfg, workload, csv_path: str | Path, on_point=None) -> GateResult:
    """Check one CSV written by ``workload``'s CLI subcommand.

    ``on_point(i)`` is called before the route check of point ``i`` (1-based),
    so a tracer can attribute the check's spans to points.
    """
    rows = _read_rows(csv_path)
    res = GateResult(points=len(workload.points))
    if workload.command == "scaling":
        return _gate_scaling(workload, rows, res)
    if len(rows) != len(workload.points):
        res.problems.append(f"{len(rows)} rows for {len(workload.points)} points")
        return res
    for i, (row, point) in enumerate(zip(rows, workload.points), start=1):
        values = [float(v) for v in row.values() if v not in ("true", "false")]
        if not all(math.isfinite(v) for v in values):
            res.nonfinite += 1
            continue
        if abs(float(row["beta"]) - point[0]) > 1e-12 * point[0]:
            res.problems.append(f"row {i}: beta {row['beta']} is not the generated {point[0]!r}")
        if on_point is not None:
            on_point(i)
        routes = route_values(fctherm, cfg, point, float(row["F2"]), float(row["I2"]))
        scale = max(abs(v) for v in routes)
        rel = (max(routes) - min(routes)) / scale if scale > 0 else 0.0
        if not math.isfinite(rel) or rel > ROUTE_RTOL:
            res.wrong += 1
            res.problems.append(f"row {i}: F2 routes disagree by {rel:.3e} relative")
            rel = rel if math.isfinite(rel) else 0.0
        res.worst_route_rel = max(res.worst_route_rel, rel)
    return res


def _gate_scaling(workload, rows: list[dict], res: GateResult) -> GateResult:
    betas = sorted({p[0] for p in workload.points})
    per_beta = len(workload.points) // len(betas)
    if len(rows) != 3 * len(betas):
        res.problems.append(f"{len(rows)} scaling rows for {len(betas)} betas")
        return res
    for k, beta in enumerate(betas):
        block = rows[3 * k:3 * k + 3]
        if any(abs(float(r["beta"]) - beta) > 1e-12 * beta for r in block):
            res.problems.append(f"scaling rows out of order at beta {beta!r}")
        bad = [r for r in block if r["status"] != "PASS"]
        if any(not math.isfinite(float(r["slope"])) for r in bad):
            res.nonfinite += per_beta
        elif bad:
            res.wrong += per_beta
            res.problems.extend(f"beta {beta:.6g}: {r['quantity']} {r['status']}" for r in bad)
    return res
