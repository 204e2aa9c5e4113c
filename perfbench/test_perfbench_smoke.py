"""Smoke test of the benchmark's own code at tiny workload sizes.

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the count metrics of two traced runs with one seed are identical, that the
tracer survives a missing layer function, and that the benchmark refuses to
run without the fctherm sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_SUFFIXES = (".calls", ".calls_per_point", ".ops_computed", ".bytes_computed", ".dim_max")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_emitted(metrics: dict, workload: str, spec: list[dict]) -> None:
    for m in spec:
        got = metrics[f"{workload}/{m['name']}"]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.fixture(scope="module")
def traced_twice():
    args = ("--workload", "all", "--seed", "3", "--trace", "1", "--tiny")
    return _result(_bench(*args)), _result(_bench(*args))


def test_every_metric_emitted_with_unit(traced_twice):
    untraced = _result(_bench("--workload", "all", "--seed", "3", "--seconds", "0.5",
                              "--trace", "0", "--tiny"))
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert untraced["correct"] and untraced["attempted"] >= 1
    traced = traced_twice[0]
    for workload in WORKLOADS:
        _check_emitted(untraced["metrics"], workload, SPEC["end_to_end"])
        _check_emitted(traced["metrics"], workload, SPEC["per_layer"])
    assert untraced["metrics"]["osc-continuum-report/ok_frac"]["value"] < 1.0
    for workload in ("qubit-continuum-sweep", "oracle-scaling"):
        assert untraced["metrics"][f"{workload}/ok_frac"]["value"] == 1.0


def test_count_metrics_repeat_exactly(traced_twice):
    first, second = traced_twice
    counts = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts["qubit-continuum-sweep/models.bath_correlation.calls_per_point"] == 2
    assert counts["qubit-continuum-sweep/kernels.gap_integrals.calls_per_point"] == 4
    assert counts["qubit-continuum-sweep/kernels.sigma_nodes.calls_per_point"] == 4
    assert counts == {k: second["metrics"][k]["value"] for k in counts}


def test_missing_layer_reads_zero_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import bench_trace
    from bench_workloads import import_program

    fctherm = import_program(ROOT)
    monkeypatch.setitem(bench_trace.TARGETS, "kernels.retired", ("fctherm._kernels", "retired"))
    original = fctherm.linalg.eigendecompose
    hamiltonian = fctherm.probe_qubit().hamiltonian
    tracer = bench_trace.Tracer()
    with tracer.installed():
        assert fctherm.oracle.eigendecompose is not original
        fctherm.linalg.eigendecompose(hamiltonian)
    assert fctherm.oracle.eigendecompose is original
    assert tracer.missing == ["fctherm._kernels.retired"]
    totals = tracer.layer_totals()
    assert "kernels.retired" not in totals
    assert totals["linalg.eigendecompose"]["calls"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
