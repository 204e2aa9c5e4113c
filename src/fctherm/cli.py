"""Command-line front end: single-point reports, 2-D sweeps, scaling checks.

Subcommands
-----------
report   evaluate the signal-to-noise decomposition over the configured
         inverse-temperature grid and emit one CSV row per point
sweep    the same over a 2-D grid: outer loop over beta, inner loop over a
         second axis (coupling strength or qubit coupling angle)
scaling  verify the coupling-order claims against the exact small-system
         reference and print a slope table with pass/fail status

All numerical output uses 17 significant digits, and rows are emitted in a
deterministic order, so identical configs produce byte-identical CSV files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 coupling outside the perturbative regime.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    CouplingTooStrongError,
    FcthermError,
    NonzeroMeanError,
)
from .linalg import gibbs_state
from .metrology import MetrologyReport, _f2_integral, snr_bound
from .models import DiscreteBath
from .oracle import JointModel, exact_fishers, exact_mfg, order_fit, trace_distance
from .perturbation import x_matrix
from .tolerances import Tolerances

SCALING_COLUMNS = ("beta", "quantity", "slope", "intercept", "r_squared",
                   "expected_min", "expected_max", "status")

SLOPE_WINDOWS = {
    "second_order": (3.8, 4.2),   # zero-mean environment: corrections start at gamma^4
    "first_order_gap": (1.9, 2.1),  # non-zero mean: Fisher gap opens at gamma^2
    "first_order_state": (0.9, 1.1),  # non-zero mean: state shifts at gamma^1
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _compute_report(cfg: RunConfig, beta: float, gamma: float, theta: float | None) -> MetrologyReport:
    """One report or sweep row.  The config's one bath serves every row; the
    probe is built per row (its truncation follows beta, its angle theta), and
    perfbench's traced pass counts rows by these ``build_probe`` calls."""
    probe = cfg.build_probe(beta=beta, theta=theta)
    return snr_bound(probe, cfg.build_bath(), gamma, beta, cfg.n_u, cfg.n_omega, cfg.tolerances())


# The report and sweep CSV layout, in file order: each column's header beside
# the cell it holds, so neither can move without the other.
_REPORT_CELLS = (
    ("T", lambda r: _fmt(r.temperature)),
    ("beta", lambda r: _fmt(r.beta)),
    ("gamma", lambda r: _fmt(r.gamma)),
    ("C_S", lambda r: _fmt(r.c_bare)),
    ("xi", lambda r: _fmt(r.xi)),
    ("snr_sq_pert", lambda r: _fmt(r.snr_sq_pert)),
    ("snr_sq_local", lambda r: _fmt(r.snr_sq_local)),
    ("F0", lambda r: _fmt(r.f0)),
    ("F2", lambda r: _fmt(r.f2)),
    ("I2", lambda r: _fmt(r.i2)),
    ("X01_re", lambda r: _fmt(r.x01.real)),
    ("X01_im", lambda r: _fmt(r.x01.imag)),
    ("alpha01_re", lambda r: _fmt(r.alpha01.real)),
    ("alpha01_im", lambda r: _fmt(r.alpha01.imag)),
    ("assumption2_ok", lambda r: "true"),  # x_matrix raises on a nonzero bath mean first
)
CSV_COLUMNS = tuple(header for header, _ in _REPORT_CELLS)


def _write_csv(path: str, header: tuple[str, ...], rows: list[list[str]]) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_reports(cfg: RunConfig, out: str | None, reports: list[MetrologyReport]) -> str | None:
    """Write one CSV row per report to ``--out`` or, failing that, the
    config's output; return the path written, or None where neither is set."""
    target = out or cfg.output
    if target:
        _write_csv(target, CSV_COLUMNS, [[cell(r) for _, cell in _REPORT_CELLS] for r in reports])
    return target


def _print_report_table(reports: list[MetrologyReport]) -> None:
    print(f"{'beta':>12} {'T':>12} {'C_S':>12} {'xi':>14} {'snr^2 pert':>14} {'snr^2 local':>14}  zero-mean")
    for rep in reports:
        print(
            f"{rep.beta:>12.6g} {rep.temperature:>12.6g} {rep.c_bare:>12.6g} {rep.xi:>14.6g} "
            f"{rep.snr_sq_pert:>14.6g} {rep.snr_sq_local:>14.6g}  true"
        )


def cmd_report(cfg: RunConfig, out: str | None) -> int:
    points = [(float(b), cfg.gamma, None) for b in cfg.beta_grid.points()]
    reports = [_compute_report(cfg, b, g, t) for b, g, t in points]
    _print_report_table(reports)
    target = _write_reports(cfg, out, reports)
    if target:
        print(f"wrote {len(reports)} rows to {target}")
    return 0


def cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep: section required for the sweep subcommand")
    axis = cfg.sweep.axis
    inner = [float(v) for v in cfg.sweep.points()]
    points: list[tuple[float, float, float | None]] = []
    for beta in cfg.beta_grid.points():
        for v in inner:
            if axis == "gamma":
                points.append((float(beta), v, None))
            else:
                points.append((float(beta), cfg.gamma, v))
    reports = [_compute_report(cfg, b, g, t) for b, g, t in points]
    target = _write_reports(cfg, out, reports)
    print(f"sweep over beta x {axis}: {cfg.beta_grid.n} x {len(inner)} = {len(reports)} rows"
          + (f", written to {target}" if target else ""))
    return 0


def _scaling_rows(gammas: np.ndarray, f_exact: np.ndarray, fi_gap: np.ndarray, dist: np.ndarray,
                  f_pert: np.ndarray | None, tol: Tolerances) -> list[dict]:
    """Order-of-scaling fits of one inverse temperature's exact deviations over
    the couplings ``gammas``.  ``f_pert`` is F0 + gamma^2 F2 on the same
    couplings, or None where the bath mean does not vanish and the expansion
    was refused; then first-order windows apply."""
    zero_mean = f_pert is not None
    second = SLOPE_WINDOWS["second_order"]
    f_scale = float(np.max(f_exact))
    rows = [{"quantity": "F - I", "fit": order_fit(gammas, fi_gap, scale=f_scale, tol=tol),
             "window": second if zero_mean else SLOPE_WINDOWS["first_order_gap"]}]
    if zero_mean:
        rows.append({"quantity": "F - F_pert",
                     "fit": order_fit(gammas, np.abs(f_exact - f_pert), scale=f_scale, tol=tol),
                     "window": second})
    else:
        rows.append({"quantity": "F - F_pert", "fit": None, "window": None})
    rows.append({"quantity": "state distance", "fit": order_fit(gammas, dist, scale=1.0, tol=tol),
                 "window": second if zero_mean else SLOPE_WINDOWS["first_order_state"]})
    for row in rows:
        fit = row["fit"]
        if fit is None:
            row["status"] = "skipped (first-order term present; expansion refused)"
        elif fit.indistinguishable:
            row["status"] = "indistinguishable-from-zero"
        else:
            lo, hi = row["window"]
            row["status"] = "PASS" if lo <= fit.slope <= hi else "FAIL"
    return rows


def cmd_scaling(cfg: RunConfig, out: str | None) -> int:
    bath = cfg.build_bath()
    if not isinstance(bath, DiscreteBath):
        raise ConfigError("scaling: requires a discrete-file bath (exact reference needed)")
    probe = cfg._design_probe()  # one probe serves every beta
    tol = cfg.tolerances()
    betas = [float(b) for b in cfg.beta_grid.points()]
    gammas = cfg.scaling.points()
    # X does not depend on the coupling: one expansion per beta serves every
    # gamma, and x_matrix alone decides whether the bath mean allows one;
    # where it does not, the prediction is the bare Gibbs state
    expansions = []
    for beta in betas:
        try:
            expansions.append(x_matrix(probe, bath, beta, cfg.n_u, cfg.n_omega, tol))
        except NonzeroMeanError:
            expansions.append(None)
    bare = [gibbs_state(probe.decomp, b, tol) if e is None else None for b, e in zip(betas, expansions)]

    # Evaluate.  The joint Hamiltonian does not depend on beta: each coupling
    # is diagonalised once, and its eigenvectors (d^2 numbers) are dropped
    # before the next coupling's are built.
    f_exact, fi_gap, dist = (np.empty((len(betas), gammas.size)) for _ in range(3))
    for k, gamma in enumerate(gammas):
        joint = JointModel(probe, bath, float(gamma))
        for j, (beta, expansion) in enumerate(zip(betas, expansions)):
            f, i = exact_fishers(joint, beta, tol=tol)
            f_exact[j, k], fi_gap[j, k] = f, abs(f - i)
            predicted = bare[j] if expansion is None else expansion.at_coupling(joint.gamma).state
            dist[j, k] = trace_distance(exact_mfg(joint, beta, tol), predicted)
        del joint

    # Fit.
    csv_rows = []
    for j, (beta, expansion) in enumerate(zip(betas, expansions)):
        f_pert = None
        if expansion is not None:
            f2 = _f2_integral(expansion.rule, expansion.bath_corr, expansion.probe_corr)
            f_pert = expansion.probe_corr.energy_var + gammas**2 * f2
        rows = _scaling_rows(gammas, f_exact[j], fi_gap[j], dist[j], f_pert, tol)
        print(f"beta = {beta:.6g}   zero-mean environment: {'no' if expansion is None else 'yes'}")
        print(f"  {'quantity':<16} {'slope':>8} {'r^2':>8} {'expected':>12}   status")
        for r in rows:
            fit, window = r["fit"], r["window"]
            fitted = fit is not None and not fit.indistinguishable
            slope = f"{fit.slope:.3f}" if fitted else "n/a"
            r2 = f"{fit.r_squared:.4f}" if fitted else "n/a"
            exp = "n/a" if window is None else f"[{window[0]}, {window[1]}]"
            print(f"  {r['quantity']:<16} {slope:>8} {r2:>8} {exp:>12}   {r['status']}")
            vals = [_fmt(fit.slope), _fmt(fit.intercept), _fmt(fit.r_squared)] if fitted else ["nan"] * 3
            bounds = ["nan", "nan"] if window is None else [_fmt(window[0]), _fmt(window[1])]
            csv_rows.append([_fmt(beta), r["quantity"].replace(" ", "_"), *vals, *bounds,
                             r["status"].replace(",", ";")])
    target = out or cfg.output
    if target:
        _write_csv(target, SCALING_COLUMNS, csv_rows)
        print(f"wrote scaling table to {target}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fctherm",
        description="finite-coupling thermometry: reports, sweeps, and scaling checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("report", "signal-to-noise decomposition over the beta grid"),
        ("sweep", "2-D sweep: beta x (gamma | theta)"),
        ("scaling", "verify coupling-order claims against the exact reference"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="CSV output path (overrides config)")
        # every run is serial; the flag stays, accepting only 1, for callers that pass it
        p.add_argument("--workers", type=int, default=1, help="worker processes: only 1 is accepted")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers != 1:
            raise ConfigError(f"--workers: only 1 is accepted (rows run in one process), got {args.workers}")
        if args.command == "report":
            return cmd_report(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out)
        return cmd_scaling(cfg, args.out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. an --out path that is a directory or read-only
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except CouplingTooStrongError as exc:
        print(f"perturbative-regime violation: {exc}", file=sys.stderr)
        return 4
    # the library's numerical failures: singular solves (FcthermError),
    # refused or non-converged computations (ValueError, including numpy's
    # LinAlgError), floating-point errors (ArithmeticError); anything else is
    # a programming error and propagates with its traceback
    except (FcthermError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
