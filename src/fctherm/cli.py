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
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import RunConfig, ScalingSpec, load_config
from .errors import ConfigError, CouplingTooStrongError, FcthermError, TruncationWarning
from .linalg import gibbs_state
from .metrology import qfi_perturbative_integral, snr_bound
from .models import DiscreteBath, zero_mean_ok
from .oracle import JointModel, exact_fishers, exact_mfg, order_fit, trace_distance
from .perturbation import x_matrix

CSV_COLUMNS = (
    "T",
    "beta",
    "gamma",
    "C_S",
    "xi",
    "snr_sq_pert",
    "snr_sq_local",
    "F0",
    "F2",
    "I2",
    "X01_re",
    "X01_im",
    "alpha01_re",
    "alpha01_im",
    "assumption2_ok",
)

SCALING_COLUMNS = ("beta", "quantity", "slope", "intercept", "r_squared",
                   "expected_min", "expected_max", "status")

SLOPE_WINDOWS = {
    "second_order": (3.8, 4.2),   # zero-mean environment: corrections start at gamma^4
    "first_order_gap": (1.9, 2.1),  # non-zero mean: Fisher gap opens at gamma^2
    "first_order_state": (0.9, 1.1),  # non-zero mean: state shifts at gamma^1
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _compute_row(cfg: RunConfig, beta: float, gamma: float, theta: float | None) -> list[str]:
    probe = cfg.build_probe(beta=beta, theta=theta)
    bath = cfg.build_bath()
    rep = snr_bound(probe, bath, gamma, beta, cfg.n_u, cfg.n_omega, cfg.tolerances())
    return [
        _fmt(rep.temperature),
        _fmt(rep.beta),
        _fmt(rep.gamma),
        _fmt(rep.c_bare),
        _fmt(rep.xi),
        _fmt(rep.snr_sq_pert),
        _fmt(rep.snr_sq_local),
        _fmt(rep.f0),
        _fmt(rep.f2),
        _fmt(rep.i2),
        _fmt(rep.x01.real),
        _fmt(rep.x01.imag),
        _fmt(rep.alpha01.real),
        _fmt(rep.alpha01.imag),
        "true" if rep.zero_mean else "false",
    ]


def _run_grid(cfg: RunConfig, points: list[tuple[float, float, float | None]], workers: int) -> list[list[str]]:
    """Evaluate (beta, gamma, theta) points, preserving input order."""
    if workers <= 1:
        return [_compute_row(cfg, b, g, t) for b, g, t in points]
    betas, gammas, thetas = zip(*points)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_compute_row, [cfg] * len(points), betas, gammas, thetas))


def _write_csv(path: str, header: tuple[str, ...], rows: list[list[str]]) -> None:
    out = Path(path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _print_report_table(rows: list[list[str]]) -> None:
    print(f"{'beta':>12} {'T':>12} {'C_S':>12} {'xi':>14} {'snr^2 pert':>14} {'snr^2 local':>14}  zero-mean")
    for row in rows:
        beta, t, cs, xi = row[1], row[0], row[3], row[4]
        pert, local, ok = row[5], row[6], row[14]
        print(
            f"{float(beta):>12.6g} {float(t):>12.6g} {float(cs):>12.6g} {float(xi):>14.6g} "
            f"{float(pert):>14.6g} {float(local):>14.6g}  {ok}"
        )


def cmd_report(cfg: RunConfig, out: str | None, workers: int) -> int:
    points = [(float(b), cfg.gamma, None) for b in cfg.beta_grid.points()]
    rows = _run_grid(cfg, points, workers)
    _print_report_table(rows)
    target = out or cfg.output
    if target:
        _write_csv(target, CSV_COLUMNS, rows)
        print(f"wrote {len(rows)} rows to {target}")
    return 0


def cmd_sweep(cfg: RunConfig, out: str | None, workers: int) -> int:
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
    rows = _run_grid(cfg, points, workers)
    target = out or cfg.output
    if target:
        _write_csv(target, CSV_COLUMNS, rows)
    print(f"sweep over beta x {axis}: {cfg.beta_grid.n} x {len(inner)} = {len(rows)} rows"
          + (f", written to {target}" if target else ""))
    return 0


def _scaling_rows(cfg: RunConfig, beta: float) -> list[dict]:
    """Order-of-scaling fits for one inverse temperature."""
    tol = cfg.tolerances()
    # The oracle and the expansion share this truncated probe, so truncation
    # error cancels from every comparison below and the warning would be false.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        probe = cfg.build_probe(beta=beta)
    bath = cfg.build_bath()
    if not isinstance(bath, DiscreteBath):
        raise ConfigError("scaling: requires a discrete-file bath (exact reference needed)")
    gammas = (cfg.scaling or ScalingSpec()).points()
    zero_mean = zero_mean_ok(bath, beta, tol)
    # X does not depend on the coupling: one expansion serves every gamma
    if zero_mean:
        expansion = x_matrix(probe, bath, beta, cfg.n_u, cfg.n_omega, tol)
    else:
        pi_s, _ = gibbs_state(probe.decomp, beta, tol)

    f_exact = np.empty(gammas.size)
    fi_gap = np.empty(gammas.size)
    dist = np.empty(gammas.size)
    for k, g in enumerate(gammas):
        joint = JointModel(probe, bath, float(g))
        f, i = exact_fishers(joint, beta, tol=tol)
        f_exact[k] = f
        fi_gap[k] = abs(f - i)
        reduced = exact_mfg(joint, beta, tol)
        predicted = expansion.at_coupling(float(g)).state if zero_mean else pi_s
        dist[k] = trace_distance(reduced, predicted)

    rows = []
    f_scale = float(np.max(f_exact))
    gap_window = SLOPE_WINDOWS["second_order"] if zero_mean else SLOPE_WINDOWS["first_order_gap"]
    rows.append({"quantity": "F - I", "fit": order_fit(gammas, fi_gap, scale=f_scale, tol=tol),
                 "window": gap_window})
    if zero_mean:
        f0, f2 = qfi_perturbative_integral(probe, bath, beta, cfg.n_u, cfg.n_omega)
        trunc = np.abs(f_exact - (f0 + gammas**2 * f2))
        rows.append({"quantity": "F - F_pert", "fit": order_fit(gammas, trunc, scale=f_scale, tol=tol),
                     "window": SLOPE_WINDOWS["second_order"]})
    else:
        rows.append({"quantity": "F - F_pert", "fit": None, "window": None})
    dist_window = (SLOPE_WINDOWS["second_order"] if zero_mean
                   else SLOPE_WINDOWS["first_order_state"])
    rows.append({"quantity": "state distance", "fit": order_fit(gammas, dist, scale=1.0, tol=tol),
                 "window": dist_window})
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


def cmd_scaling(cfg: RunConfig, out: str | None, workers: int) -> int:
    del workers  # grid is small; the exact reference runs serially
    csv_rows = []
    for beta in cfg.beta_grid.points():
        rows = _scaling_rows(cfg, float(beta))
        zero_mean = all(r["fit"] is not None for r in rows)
        print(f"beta = {beta:.6g}   zero-mean environment: {'yes' if zero_mean else 'no'}")
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
        p.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.workers < 1:
            raise ConfigError("--workers: must be >= 1")
        if args.command == "report":
            return cmd_report(cfg, args.out, args.workers)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.workers)
        return cmd_scaling(cfg, args.out, args.workers)
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
