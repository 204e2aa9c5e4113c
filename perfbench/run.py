"""fctherm benchmark: end-to-end and per-layer metrics from seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload osc-continuum-report --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1              # every workload, both runs
    python3 perfbench/run.py --workload oracle-scaling --seed 1 --profile

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate traced run that reports the per-layer metrics.  Each run prints
a table of metrics with units, an ``info`` line with the environment record,
CSV sha256s and gate details, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The same record goes
to ``.perfbench_out/``.  ``--profile`` prints cProfile attribution for one CLI
pass instead and is never part of a measured run.

Exit codes: 0 measured, 1 a benchmark step failed, 2 usage error or no
fctherm sources under ``./src``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_env  # noqa: E402
from bench_checks import ROUTE_RTOL, gate, sha256_file  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_worker import cli_argv, cli_pass  # noqa: E402
from bench_workloads import WORKLOADS, Workload, generate, import_program, run_point  # noqa: E402

CHILD_TIMEOUT_S = 150
# Timings are reported at the speed at which the worker's reference kernel
# takes this long (about its time on the 2-vCPU Xeon host the benchmark was
# tuned on).  Each sample is scaled by REF_NOMINAL_S / (probes around it).
REF_NOMINAL_S = 2.0e-3
OVERHEAD_PAIRS = 3         # untraced/traced pass pairs behind trace.overhead_frac

END_TO_END = {
    "points_per_s": "1/s",
    "point_ms_p50": "ms",
    "point_ms_p90": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "kernels.gap_integrals.calls": "count",
    "kernels.gap_integrals.calls_per_point": "count",
    "kernels.gap_integrals.self_s": "s",
    "kernels.gap_integrals.ops_computed": "op",
    "kernels.gap_integrals.bytes_computed": "B",
    "kernels.sigma_nodes.calls": "count",
    "kernels.sigma_nodes.calls_per_point": "count",
    "kernels.sigma_nodes.self_s": "s",
    "kernels.sigma_nodes.ops_computed": "op",
    "kernels.sigma_nodes.bytes_computed": "B",
    "kernels.jacobi_eigh.calls": "count",
    "kernels.jacobi_eigh.self_s": "s",
    "perturbation.x_matrix.calls": "count",
    "perturbation.x_matrix.self_s": "s",
    "perturbation.sld_second_order.self_s": "s",
    "perturbation.mfg_second_order.self_s": "s",
    "linalg.quad_finite.calls": "count",
    "linalg.quad_finite.calls_per_point": "count",
    "linalg.quad_finite.self_s": "s",
    "linalg.quad_semiinfinite.calls": "count",
    "linalg.quad_semiinfinite.self_s": "s",
    "linalg.eigendecompose.calls": "count",
    "linalg.eigendecompose.self_s": "s",
    "linalg.eigendecompose.dim_max": "levels",
    "linalg.sld_solve.self_s": "s",
    "models.bath_correlation.calls": "count",
    "models.bath_correlation.calls_per_point": "count",
    "models.bath_correlation.self_s": "s",
    "models.correlator_eval.calls": "count",
    "models.correlator_eval.self_s": "s",
    "oracle.exact_fishers.calls": "count",
    "oracle.exact_fishers.self_s": "s",
    "oracle.exact_mfg.self_s": "s",
    "oracle.trace_distance.self_s": "s",
    "oracle.order_fit.self_s": "s",
    "metrology.snr_bound.calls": "count",
    "metrology.snr_bound.self_s": "s",
    "metrology.qfi_perturbative_integral.self_s": "s",
    "metrology.cfi_energy_perturbative.self_s": "s",
    "metrology.qfi_perturbative_sum.self_s": "s",
    "metrology.xi_via_spectral_kernel.self_s": "s",
    "config.load.self_s": "s",
    "config.build_probe.calls": "count",
    "config.build_probe.self_s": "s",
    "config.build_bath.self_s": "s",
    "cli.command.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.missing_targets": "count",
}

# Layers timed only in the traced route check, not in the traced CLI pass.
ROUTE_CHECK_LAYERS = ("metrology.qfi_perturbative_sum", "metrology.xi_via_spectral_kernel")

# The layer whose top-level call starts a new point inside a CLI pass.
POINT_OPENER = {"report": "config.build_probe", "sweep": "config.build_probe",
                "scaling": "oracle.exact_fishers"}


class BenchError(RuntimeError):
    """A benchmark step could not be carried out."""


# ----------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ----------------------------------------------------------------------------


def run_measure_child(root: Path, workload_file: Path, seconds: float, csv_path: Path) -> dict:
    cmd = [sys.executable, str(HERE / "bench_worker.py"), "measure", str(workload_file),
           repr(float(seconds)), str(csv_path)]
    # its own process group, so that a timeout also ends any set-up probe it started
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"measurement did not finish within {CHILD_TIMEOUT_S} s") from exc
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measurement failed (exit {proc.returncode}): {err[-2000:]}")
    return json.loads(lines[-1])


def _at_reference_speed(seconds: float, ref_s: float) -> float:
    return seconds * REF_NOMINAL_S / ref_s


def _timings(child: dict, n: int, scale) -> dict:
    """The timed metrics from the worker's samples, each time passed through
    ``scale(seconds, speed probe seconds)``.

    A point's latency is its median over the run's cycles, which also drops a
    sample scaled by probes that straddle a change of speed.
    """
    rates = [n / scale(p["seconds"], p["ref_s"]) if p["rc"] == 0 else 0.0
             for p in child["passes"]]
    lat_ms = [1e3 * scale(t, ref) for t, ref in child["latency_s"]]
    point_ms = [statistics.median(lat_ms[i::n]) for i in range(n)]
    return {
        "points_per_s": statistics.median(rates),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p90": statistics.quantiles(point_ms, n=10)[8],
        "setup_s": statistics.median(scale(t, ref) for t, ref in child["setup_s"]),
    }


def untraced_run(fctherm, root: Path, workload: Workload, workload_file: Path,
                 seconds: float, scratch: Path) -> dict:
    csv_path = scratch / f"{workload.name}.csv"
    child = run_measure_child(root, workload_file, seconds, csv_path)

    cfg = fctherm.load_config(workload.config_path)
    passes = child["passes"]
    n = len(workload.points)
    ok_passes = [p for p in passes if p["rc"] == 0]
    problems = []
    checked = gate(fctherm, cfg, workload, csv_path) if csv_path.exists() else None
    if checked is not None:
        problems.extend(checked.problems)
    elif ok_passes:
        problems.append("the last CLI pass left no CSV to check")
    shas = sorted({p["sha256"] for p in ok_passes})
    if len(shas) > 1:
        problems.append(f"CSV not byte-stable across passes: {shas}")

    # the gated CSV stands for every pass that exited 0, since all are byte-identical
    per_ok_pass = checked.failed if checked is not None else 0
    attempted = n * len(passes) + len(child["latency_s"])
    failed = sum(per_ok_pass if p["rc"] == 0 else n for p in passes) + child["latency_failed"]
    # The host's speed changes by up to 2x for seconds to minutes at a time, so
    # every timing is scaled to the reference speed by the speed probes taken
    # around and inside it (raw figures stay in "info"); runs then agree.
    metrics = {
        **_timings(child, n, _at_reference_speed),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": child["maxrss_kb"] / 1024.0,
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "samples": {"setup_s": child["setup_s"], "passes": passes,
                    "latency_s": child["latency_s"]},
        "info": {
            "ref_nominal_s": REF_NOMINAL_S,
            "speed_probes": child["speed_probes"],
            "speed_probe_median_s": statistics.median(
                [ref for _, ref in child["latency_s"]] + [p["ref_s"] for p in passes]),
            "raw": _timings(child, n, lambda seconds, ref_s: seconds),
            "csv_sha256": shas,
            "passes": len(passes),
            "pass_exit_codes": sorted({p["rc"] for p in passes}),
            "latency_samples": len(child["latency_s"]),
            "latency_cycles": child["latency_cycles"],
            "nonfinite_points_per_pass": checked.nonfinite if checked else None,
            "worst_route_rel": checked.worst_route_rel if checked else None,
            "route_rtol": ROUTE_RTOL,
            "problems": problems,
        },
    }


# ----------------------------------------------------------------------------
# traced run: per-layer metrics
# ----------------------------------------------------------------------------


def _layer_metric(name: str, pass_totals: dict, check_totals: dict, counters, n_points: int):
    layer, _, field = name.rpartition(".")
    totals = check_totals if layer in ROUTE_CHECK_LAYERS else pass_totals
    row = totals.get(layer, {"calls": 0, "point_calls": 0, "self_s": 0.0})
    if field == "calls":
        return row["calls"]
    if field == "self_s":
        return row["self_s"]
    if field == "calls_per_point":
        return row["point_calls"] / n_points
    return counters.get(name, 0)


def _traced_pass(fctherm, workload: Workload, tracer: Tracer, csv_path: Path):
    """One CLI pass under ``tracer``, inside a top-level ``cli.command`` span."""
    sink = io.StringIO()
    csv_path.unlink(missing_ok=True)
    with tracer.installed():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tracer.span("cli.command"):
                rc = fctherm.cli.main(cli_argv(workload, csv_path))
        return rc, time.perf_counter() - t0


def traced_run(fctherm, workload: Workload, scratch: Path, out_dir: Path, seed: int) -> dict:
    cfg = fctherm.load_config(workload.config_path)
    run_point(fctherm, cfg, workload, workload.points[0])
    csv_plain = scratch / f"{workload.name}-untraced.csv"
    csv_traced = scratch / f"{workload.name}-traced.csv"
    cli_pass(fctherm, workload, csv_plain)  # the first pass of a process runs slow
    # Untraced and traced passes alternate; the overhead is the median ratio of
    # a pair, and every metric except it comes from the first traced pass.
    ratios, tracer = [], None
    for _ in range(OVERHEAD_PAIRS):
        rc_plain, plain_s = cli_pass(fctherm, workload, csv_plain)
        pass_tracer = Tracer(point_opener=POINT_OPENER[workload.command])
        rc_pass, pass_s = _traced_pass(fctherm, workload, pass_tracer, csv_traced)
        ratios.append(pass_s / plain_s)
        if tracer is None:
            tracer, rc, traced_s = pass_tracer, rc_pass, pass_s

    n = len(workload.points)
    problems = []
    if rc != 0 or not csv_traced.exists():
        problems.append(f"traced CLI pass exited {rc} or left no CSV")
        checked, check_tracer = None, Tracer()
    else:
        if rc_plain == 0 and sha256_file(csv_plain) != sha256_file(csv_traced):
            problems.append("tracing changed the CSV bytes")
        if tracer.point != n:
            problems.append(f"tracer opened {tracer.point} points for {n} workload points")
        check_tracer = Tracer()
        with check_tracer.installed():
            checked = gate(fctherm, cfg, workload, csv_traced,
                           on_point=lambda i: setattr(check_tracer, "point", i))
        problems.extend(checked.problems)

    pass_totals = tracer.layer_totals()
    check_totals = check_tracer.layer_totals()
    metrics = {name: _layer_metric(name, pass_totals, check_totals, tracer.counters, n)
               for name in PER_LAYER if not name.startswith("trace.")}
    metrics["trace.pass_s"] = traced_s
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    metrics["trace.missing_targets"] = len(tracer.missing)

    spans_file = out_dir / f"{workload.name}-seed{seed}-spans.json"
    spans_file.write_text(json.dumps({"cli_pass": tracer.events(),
                                      "route_check": check_tracer.events()}), encoding="utf-8")
    return {
        "correct": not problems,
        "attempted": n,
        "failed": n if checked is None else checked.failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "info": {
            "overhead_ratios": ratios,
            "spans": len(tracer.spans) + len(check_tracer.spans),
            "spans_file": str(spans_file.relative_to(out_dir.parent)),
            "missing_targets": tracer.missing,
            "csv_sha256": sha256_file(csv_traced) if checked is not None else None,
            "problems": problems,
        },
    }


# ----------------------------------------------------------------------------
# profiling and reporting
# ----------------------------------------------------------------------------


def profile(fctherm, workload: Workload, scratch: Path) -> None:
    """cProfile attribution of one CLI pass, printed; never part of a measurement."""
    cfg = fctherm.load_config(workload.config_path)
    run_point(fctherm, cfg, workload, workload.points[0])
    prof = cProfile.Profile()
    prof.enable()
    cli_pass(fctherm, workload, scratch / f"{workload.name}-profile.csv")
    prof.disable()
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("tottime").print_stats(25)
    stats.sort_stats("cumulative").print_stats(25)


def print_table(workload: str, seed: int, trace: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}  correct {result['correct']}  "
          f"failed {result['failed']}/{result['attempted']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured time of an untraced run (rounds of set-up probe, "
                             "CLI pass and latency cycle)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer metrics; default both")
    parser.add_argument("--profile", action="store_true",
                        help="print cProfile attribution for one CLI pass and exit")
    parser.add_argument("--tiny", action="store_true",
                        help="reduced workload sizes for the smoke test; not a measurement")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "fctherm" / "__init__.py").is_file():
        print(f"perfbench: no fctherm sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    fctherm = import_program(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    env = bench_env.record()
    results = {}
    try:
        with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
            for name in names:
                scratch = Path(tmp) / name
                workload = generate(name, args.seed, scratch, tiny=args.tiny)
                workload_file = scratch / "workload.json"
                workload.save(workload_file)
                if args.profile:
                    profile(fctherm, workload, scratch)
                    continue
                for trace in traces:
                    if trace:
                        res = traced_run(fctherm, workload, scratch, out_dir, args.seed)
                    else:
                        res = untraced_run(fctherm, root, workload, workload_file,
                                           args.seconds, scratch)
                    record = {"workload": name, "seed": args.seed,
                              "trace": trace, "seconds": args.seconds, "tiny": args.tiny,
                              "env": env, **res}
                    (out_dir / f"{name}-seed{args.seed}-trace{trace}.json").write_text(
                        json.dumps(record, indent=2), encoding="utf-8")
                    print_table(name, args.seed, trace, res)
                    print("info " + json.dumps({"workload": name, "trace": trace, "env": env,
                                                **res["info"]}))
                    results[(name, trace)] = res
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    if args.profile:
        return 0

    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        metrics = {f"{name}/{k}": v for (name, _), res in results.items()
                   for k, v in res["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
