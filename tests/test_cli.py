"""CLI contract: CSV layout, determinism, exit codes, scaling statuses."""

from __future__ import annotations

import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from fctherm import (
    DEFAULT_TOL,
    RunConfig,
    TruncationWarning,
    bath_mode,
    cli,
    load_config,
    oracle,
)
from fctherm.cli import CSV_COLUMNS, SLOPE_WINDOWS, main
from references import gamma_grid

QUBIT_OHMIC = {
    "probe": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 4.71238898038469}},
    "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0},
    "gamma": 0.1,
    "beta_grid": {"min": 0.5, "max": 2.0, "n": 3, "spacing": "log"},
}


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def test_report_csv_layout(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    out = tmp_path / "report.csv"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ",".join(CSV_COLUMNS)
    assert header.count(",") == 14  # 15 columns
    assert len(rows) == 3
    for row in rows:
        assert len(row) == 15
        assert row[14] in ("true", "false")
        for cell in row[:14]:
            float(cell)  # every numeric cell must parse


def test_fixed_truncation_is_checked_at_the_hottest_grid_point(tmp_path, capsys):
    # five levels are valid at beta = 10 and 20, though not at beta = 1
    doc = {
        "probe": {"kind": "oscillator", "params": {"omega0": 1.0, "n_trunc": 5}},
        "bath": {"kind": "ohmic", "s": 1.0, "Omega": 10.0},
        "gamma": 0.05,
        "beta_grid": {"min": 10.0, "max": 20.0, "n": 2},
    }
    out = tmp_path / "cold.csv"
    assert main(["report", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 2
    assert all(math.isfinite(float(cell)) for row in rows for cell in row[:14])
    doc["beta_grid"]["min"] = 1.0
    assert main(["report", "--config", write_config(tmp_path, doc)]) == 2
    assert "inverse temperature 1.0; increase n_trunc" in capsys.readouterr().err


def test_report_values_round_trip_through_text(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    out = tmp_path / "report.csv"
    main(["report", "--config", cfg, "--out", str(out)])
    _, rows = read_rows(out)
    for row in rows:
        for cell in row[:14]:
            assert format(float(cell), ".17g") == cell


def test_report_output_is_byte_stable(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["report", "--config", cfg, "--out", str(out1)])
    main(["report", "--config", cfg, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, name", [("sweep", "report_qubit_transverse"),
                                           ("report", "report_oscillator_ohmic")])
def test_warm_caches_give_a_fresh_process_bytes(tmp_path, config_dir, in_process_passes,
                                                command, name):
    # the session's warm pass, which read the probe spectra, bath correlators,
    # rules and kernel tables its cold pass left behind, gives the cold pass's
    # bytes (test_byte_checks.py); so must a fresh process at this process's
    # BLAS thread count, which starts from none
    fresh = tmp_path / "fresh.csv"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "fctherm.cli", command, "--config",
                    str(config_dir / f"{name}.json"), "--out", str(fresh)],
                   check=True, env=env, capture_output=True)
    assert fresh.read_bytes() == (in_process_passes[0] / f"{command}-{name}.csv").read_bytes()


def test_zero_coupling_report_collapses_to_local_bound(tmp_path):
    doc = dict(QUBIT_OHMIC, gamma=0.0)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "zero.csv"
    main(["report", "--config", cfg, "--out", str(out)])
    _, rows = read_rows(out)
    pert = CSV_COLUMNS.index("snr_sq_pert")
    local = CSV_COLUMNS.index("snr_sq_local")
    for row in rows:
        assert row[pert] == row[local]  # string-identical, not merely close


def test_report_is_stable_under_time_node_doubling(tmp_path):
    out_by_nu = {}
    for n_u in (64, 128):
        doc = dict(QUBIT_OHMIC, quadrature={"n_u": n_u, "n_omega": 128})
        cfg = write_config(tmp_path, doc, name=f"run{n_u}.json")
        out = tmp_path / f"nu{n_u}.csv"
        main(["report", "--config", cfg, "--out", str(out)])
        _, rows = read_rows(out)
        out_by_nu[n_u] = rows
    for row_a, row_b in zip(out_by_nu[64], out_by_nu[128]):
        for cell_a, cell_b in zip(row_a[:14], row_b[:14]):
            a, b = float(cell_a), float(cell_b)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (cell_a, cell_b)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_requires_sweep_section(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    assert main(["sweep", "--config", cfg]) == 2


def test_sweep_ordering_outer_beta_inner_axis(tmp_path):
    doc = dict(
        QUBIT_OHMIC,
        beta_grid={"min": 0.5, "max": 2.0, "n": 2, "spacing": "log"},
        sweep={"axis": "theta", "values": [4.71238898038469, 0.7853981633974483]},
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    betas = [float(r[CSV_COLUMNS.index("beta")]) for r in rows]
    assert betas[0] == betas[1] and betas[2] == betas[3] and betas[0] < betas[2]
    xi = CSV_COLUMNS.index("xi")
    assert rows[0][xi] != rows[1][xi]  # theta changed within the beta block


def test_gamma_sweep_varies_coupling_column(tmp_path):
    doc = dict(
        QUBIT_OHMIC,
        beta_grid={"min": 1.0, "max": 1.0, "n": 1},
        sweep={"axis": "gamma", "values": [0.05, 0.1]},
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "gsweep.csv"
    main(["sweep", "--config", cfg, "--out", str(out)])
    _, rows = read_rows(out)
    g = CSV_COLUMNS.index("gamma")
    assert [float(r[g]) for r in rows] == [0.05, 0.1]
    # xi is coupling-independent (it is the coefficient, not the product)
    xi = CSV_COLUMNS.index("xi")
    assert rows[0][xi] == rows[1][xi]


def test_single_point_sweep_equals_report_row(tmp_path):
    doc = dict(
        QUBIT_OHMIC,
        beta_grid={"min": 1.0, "max": 1.0, "n": 1},
        sweep={"axis": "gamma", "values": [0.1]},
    )
    cfg_sweep = write_config(tmp_path, doc, name="sweep.json")
    cfg_report = write_config(
        tmp_path, dict(QUBIT_OHMIC, beta_grid={"min": 1.0, "max": 1.0, "n": 1}), name="rep.json"
    )
    out_s, out_r = tmp_path / "s.csv", tmp_path / "r.csv"
    main(["sweep", "--config", cfg_sweep, "--out", str(out_s)])
    main(["report", "--config", cfg_report, "--out", str(out_r)])
    assert out_s.read_bytes() == out_r.read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_2_on_missing_config(tmp_path, capsys):
    assert main(["report", "--config", str(tmp_path / "absent.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


_RUNS = {"report": dict(QUBIT_OHMIC),
         "sweep": dict(QUBIT_OHMIC, sweep={"axis": "gamma", "min": 0.05, "max": 0.1, "n": 2}),
         "scaling": "scaling_dephasing.json"}


def run_config(tmp_path, config_dir, command):
    """A small config path for ``command``: written from _RUNS, or bundled."""
    doc = _RUNS[command]
    return write_config(tmp_path, doc) if isinstance(doc, dict) else str(config_dir / doc)


@pytest.mark.parametrize("workers", ["0", "2"])
@pytest.mark.parametrize("command", sorted(_RUNS))
def test_exit_2_on_bad_worker_count(tmp_path, config_dir, capsys, command, workers):
    cfg = run_config(tmp_path, config_dir, command)
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out), "--workers", workers]) == 2
    assert "--workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_RUNS))
def test_one_worker_writes_the_bytes_of_a_run_without_the_flag(tmp_path, config_dir, command):
    # the benchmark passes --workers 1 to every subcommand
    cfg = run_config(tmp_path, config_dir, command)
    plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
    assert main([command, "--config", cfg, "--out", str(plain)]) == 0
    assert main([command, "--config", cfg, "--out", str(flagged), "--workers", "1"]) == 0
    assert flagged.read_bytes() == plain.read_bytes()


# the Jacobi convergence knob went with the Jacobi solver, the step-halving
# knob with the oracle's finite differences, and the KMS knob was never read;
# the input and eigensolver guards are fixed constants in fctherm.linalg
@pytest.mark.parametrize(
    "name",
    [
        "eig_offdiag_rel",
        "richardson_rel",
        "kms",
        "hermiticity",
        "eig_reconstruction",
        "eig_unitarity",
        "eig_cluster_rel",
        "psd_state",
        "degeneracy_rel",
        "hermit_drift",
    ],
)
def test_exit_2_on_removed_tolerance_field(tmp_path, capsys, name):
    cfg = write_config(tmp_path, dict(QUBIT_OHMIC, tolerances={name: 1e-14}))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert f"tolerances.{name}: unknown tolerance name" in capsys.readouterr().err


def test_output_into_a_new_directory_makes_the_directory(tmp_path):
    out = tmp_path / "new" / "deeper" / "r.csv"
    assert main(["report", "--config", write_config(tmp_path, QUBIT_OHMIC), "--out", str(out)]) == 0
    assert len(read_rows(out)[1]) == 3


def test_exit_2_on_unwritable_output_path(tmp_path, capsys):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    assert main(["report", "--config", cfg, "--out", str(tmp_path)]) == 2  # a directory
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("section, source", [("probe", "probe_qubit_x.json"),
                                             ("bath", "bath_qubit_x.json")])
def test_exit_2_on_non_finite_operator_entry(tmp_path, config_dir, capsys, section, source):
    # a NaN once slipped through every Hermiticity and eigensolver check and
    # came out as nan columns with assumption2_ok = false and exit code 0
    ops = json.loads((config_dir / source).read_text())
    ops["H"][0] = [math.nan, 0.0]
    bad = tmp_path / source
    bad.write_text(json.dumps(ops))
    doc = {
        "probe": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 0.7853981633974483}},
        "bath": {"kind": "discrete-file", "path": str(config_dir / "bath_qubit_x.json")},
        "gamma": 0.05,
        "beta_grid": {"min": 1.0, "max": 1.0, "n": 1},
    }
    if section == "probe":
        doc["probe"] = {"kind": "custom-matrix-file", "params": {"path": str(bad)}}
    else:
        doc["bath"]["path"] = str(bad)
    cfg = write_config(tmp_path, doc)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: H[0]: must be finite" in err
    assert not (tmp_path / "r.csv").exists()


def _set(key, value, index=None):
    def edit(ops):
        if index is None:
            ops[key] = value
        else:
            ops[key][index] = value
    return edit


@pytest.mark.parametrize("edit, key", [
    (_set("dim", 2.9), "dim"),
    (_set("dim", "2"), "dim"),
    (_set("dim", True), "dim"),
    (_set("dim", 0), "dim"),
    (_set("H", [True, 0.0], 0), "H[0]"),
    (_set("S", ["1", 0.0], 1), "S[1]"),
    (_set("H", [1.0, 0.0, 0.0], 3), "H[3]"),
    (_set("S", {"re": 0.0, "im": 0.0}), "S"),
    (_set("dim_exponent", "0"), "dim_exponent"),
    (_set("dim_exponent", False), "dim_exponent"),
    (_set("dim_exponent", math.inf), "dim_exponent"),
    # the run config's number rule: an int too large for a float is refused
    (_set("H", [int("9" * 400), 0.0], 2), "H[2]"),
    (_set("dim_exponent", int("9" * 400)), "dim_exponent"),
], ids=["dim-float", "dim-str", "dim-bool", "dim-zero", "entry-bool", "entry-str",
        "entry-triple", "entries-not-a-list", "exponent-str", "exponent-bool", "exponent-inf",
        "entry-huge-int", "exponent-huge-int"])
def test_exit_2_on_loosely_typed_operator_file(tmp_path, config_dir, capsys, edit, key):
    # each of these once parsed: 2.9, "2" and true as a dimension, true as an
    # entry, "0" as an exponent
    ops = json.loads((config_dir / "probe_qubit_x.json").read_text())
    edit(ops)
    bad = tmp_path / "probe_qubit_x.json"
    bad.write_text(json.dumps(ops))
    doc = {
        "probe": {"kind": "custom-matrix-file", "params": {"path": str(bad)}},
        "bath": {"kind": "discrete-file", "path": str(config_dir / "bath_qubit_x.json")},
        "gamma": 0.05,
        "beta_grid": {"min": 1.0, "max": 1.0, "n": 1},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: {key}:" in err
    assert not (tmp_path / "r.csv").exists()


def test_exit_3_on_numerical_failure(tmp_path, config_dir, capsys):
    # a projector-coupled environment has a non-zero coupling mean, which the
    # second-order report machinery refuses mid-computation
    doc = dict(
        QUBIT_OHMIC,
        bath={"kind": "discrete-file", "path": str(config_dir / "bath_qubit_proj.json")},
    )
    cfg = write_config(tmp_path, doc)
    assert main(["report", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "p1_operator" in err
    assert "NonzeroMeanError" in err


def test_cold_rows_survive_a_large_frequency_rule(tmp_path):
    # beta * cutoff reaches 1000, where the cold frequency rule splits off a
    # Laguerre tail panel; with n_omega = 1000 that panel is capped like the
    # single-scale rule instead of overflowing partway through the grid
    doc = dict(QUBIT_OHMIC, beta_grid={"min": 0.1, "max": 10.0, "n": 4, "spacing": "log"},
               quadrature={"n_omega": 1000, "n_u": 64})
    out = tmp_path / "r.csv"
    assert main(["report", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == 4
    assert all(math.isfinite(float(v)) for row in rows for v in row[:-1])


def test_programming_errors_are_not_reported_as_numerical_failures(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise TypeError("snr_bound() got an unexpected keyword argument")

    monkeypatch.setattr(cli, "snr_bound", broken)
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    with pytest.raises(TypeError, match="unexpected keyword"):
        main(["report", "--config", cfg])
    assert "numerical failure" not in capsys.readouterr().err


def test_exit_4_when_coupling_leaves_perturbative_regime(tmp_path, config_dir, capsys):
    doc = {
        "probe": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 0.7853981633974483}},
        "bath": {"kind": "discrete-file", "path": str(config_dir / "bath_qubit_x.json")},
        "gamma": 0.05,
        "beta_grid": {"min": 2.0, "max": 2.0, "n": 1},
        "scaling": {"gamma_min": 0.5, "gamma_max": 3.0, "n": 5},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["scaling", "--config", cfg]) == 4
    assert "perturbative-regime violation" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scaling statuses on the bundled reference configs
# ---------------------------------------------------------------------------


def scaling_statuses(csv_path):
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "beta,quantity,slope,intercept,r_squared,expected_min,expected_max,status"
    return {parts[1]: parts for parts in (line.split(",") for line in lines[1:])}


def test_scaling_spin_boson_all_second_order(tmp_path, config_dir, capsys):
    out = tmp_path / "sb.csv"
    rc = main(["scaling", "--config", str(config_dir / "scaling_spin_boson.json"), "--out", str(out)])
    assert rc == 0
    assert "zero-mean environment: yes" in capsys.readouterr().out
    by_q = scaling_statuses(out)
    assert set(by_q) == {"F_-_I", "F_-_F_pert", "state_distance"}
    for name, parts in by_q.items():
        assert parts[-1] == "PASS", (name, parts)
        assert 3.8 <= float(parts[2]) <= 4.2, (name, parts[2])
        assert float(parts[5]) == 3.8 and float(parts[6]) == 4.2


def test_scaling_dephasing_statuses(tmp_path, config_dir, capsys):
    out = tmp_path / "dp.csv"
    rc = main(["scaling", "--config", str(config_dir / "scaling_dephasing.json"), "--out", str(out)])
    assert rc == 0
    assert "zero-mean environment: no" in capsys.readouterr().out
    by_q = scaling_statuses(out)
    # commuting coupling: the exact F and I coincide identically, so the gap
    # never rises above the numerical floor
    assert by_q["F_-_I"][-1] == "indistinguishable-from-zero"
    assert by_q["F_-_F_pert"][-1] == "skipped (first-order term present; expansion refused)"
    assert by_q["state_distance"][-1] == "PASS"
    assert 0.9 <= float(by_q["state_distance"][2]) <= 1.1


def test_scaling_dissipative_statuses(tmp_path, config_dir):
    out = tmp_path / "ds.csv"
    rc = main(["scaling", "--config", str(config_dir / "scaling_dissipative.json"), "--out", str(out)])
    assert rc == 0
    by_q = scaling_statuses(out)
    assert by_q["F_-_I"][-1] == "PASS"
    assert 1.9 <= float(by_q["F_-_I"][2]) <= 2.1
    assert by_q["F_-_F_pert"][-1] == "skipped (first-order term present; expansion refused)"
    assert by_q["state_distance"][-1] == "PASS"
    assert 0.9 <= float(by_q["state_distance"][2]) <= 1.1


def test_scaling_oscillator_probe_against_truncated_mode(tmp_path, config_dir, capsys):
    # oscillator probe (14 levels) x one 12-level mode, joint d = 168; the
    # oracle and the expansion share the truncated probe, so truncation error
    # does not enter the comparison and no truncation warning is raised
    out = tmp_path / "om.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["scaling", "--config", str(config_dir / "scaling_oscillator_mode.json"),
                   "--out", str(out)])
    assert not [w for w in caught if issubclass(w.category, TruncationWarning)]
    assert rc == 0
    assert "zero-mean environment: yes" in capsys.readouterr().out
    by_q = scaling_statuses(out)
    assert set(by_q) == {"F_-_I", "F_-_F_pert", "state_distance"}
    for name, parts in by_q.items():
        assert parts[-1] == "PASS", (name, parts)


@pytest.mark.parametrize("n_probe, n_mode", [(16, 8), (20, 10)])
def test_scaling_cold_many_level_oscillator_passes(tmp_path, config_dir, n_probe, n_mode):
    # at beta = 2 the reduced state's smallest eigenvalues lie within 1e-12
    # of one another; the oracle must still pair each with its own eigenvector
    mode = bath_mode(0.45, n_mode)
    entries = {key: [[float(x), 0.0] for x in op.reshape(-1)]
               for key, op in (("H", mode.hamiltonian), ("S", mode.coupling))}
    bath_path = tmp_path / "mode.json"
    bath_path.write_text(json.dumps({"dim": n_mode, **entries}))
    doc = json.loads((config_dir / "scaling_oscillator_mode.json").read_text())
    doc["bath"]["path"] = str(bath_path)
    doc["probe"]["params"]["n_trunc"] = n_probe
    doc["beta_grid"] = {"min": 2.0, "max": 2.0, "n": 1}
    out = tmp_path / "cold.csv"
    assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    by_q = scaling_statuses(out)
    assert set(by_q) == {"F_-_I", "F_-_F_pert", "state_distance"}
    for name, parts in by_q.items():
        assert parts[-1] == "PASS", (name, parts)


def test_report_still_warns_about_a_tight_truncation(tmp_path, config_dir):
    # the same 14-level probe in a report is compared with nothing truncated
    # alike, so there the warning stands (once, from the row at beta = 1)
    out = tmp_path / "om_report.csv"
    with pytest.warns(TruncationWarning, match="top-level population") as caught:
        rc = main(["report", "--config", str(config_dir / "scaling_oscillator_mode.json"),
                   "--out", str(out)])
    assert rc == 0
    assert len([w for w in caught if issubclass(w.category, TruncationWarning)]) == 1


def test_scaling_requires_discrete_bath(tmp_path):
    doc = dict(QUBIT_OHMIC)
    doc["scaling"] = {"gamma_min": 0.01, "gamma_max": 0.1, "n": 8}
    cfg = write_config(tmp_path, doc)
    assert main(["scaling", "--config", cfg]) == 2


@pytest.mark.parametrize("name", ["scaling_spin_boson.json", "scaling_oscillator_mode.json"])
def test_scaling_builds_one_expansion_per_beta(tmp_path, config_dir, monkeypatch, name):
    # X does not depend on the coupling, so every gamma of one beta reads the
    # same x_matrix, and the F - F_pert row takes the expansion's bath
    # correlator and imaginary-time rule instead of building its own
    beta_position = {"x_matrix": 2, "bath_correlation": 1, "quad_imaginary_time": 1}
    betas = {fname: [] for fname in beta_position}

    def recording(original, fname):
        def wrapper(*args, **kwargs):
            betas[fname].append(args[beta_position[fname]])
            return original(*args, **kwargs)
        return wrapper

    modules = [m for n, m in list(sys.modules.items())
               if n == "fctherm" or n.startswith("fctherm.")]
    for module in modules:
        for fname in beta_position:
            if hasattr(module, fname):
                monkeypatch.setattr(module, fname, recording(getattr(module, fname), fname))
    path = config_dir / name
    assert main(["scaling", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 0
    grid = list(load_config(path).beta_grid.points())
    assert betas == {fname: grid for fname in beta_position}


def two_beta_spin_boson(tmp_path, config_dir):
    """The bundled spin-boson scaling config on a 2-beta x 8-coupling grid."""
    doc = json.loads((config_dir / "scaling_spin_boson.json").read_text())
    doc["bath"]["path"] = str(config_dir / doc["bath"]["path"])
    doc["beta_grid"] = {"min": 1.0, "max": 2.0, "n": 2}
    return write_config(tmp_path, doc)


def test_scaling_diagonalises_each_coupling_once_per_run(tmp_path, config_dir, monkeypatch):
    # the joint Hamiltonian does not depend on beta: a 2-beta x 8-coupling
    # run builds and diagonalises one joint model per coupling, not per point
    built, diagonalised = [], []
    post_init = oracle.JointModel.__post_init__
    eigendecompose = oracle.eigendecompose

    def counting_post_init(joint):
        built.append(joint.gamma)
        post_init(joint)

    def counting_eigendecompose(matrix, *args, **kwargs):
        diagonalised.append(matrix.shape[0])
        return eigendecompose(matrix, *args, **kwargs)

    monkeypatch.setattr(oracle.JointModel, "__post_init__", counting_post_init)
    monkeypatch.setattr(oracle, "eigendecompose", counting_eigendecompose)
    cfg = two_beta_spin_boson(tmp_path, config_dir)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert len(built) == len(set(built)) == 8
    assert diagonalised == [4] * 8  # qubit probe x two-level bath


def test_scaling_keeps_one_joint_model_alive(tmp_path, config_dir, monkeypatch):
    # couplings are the outer loop: each model (its decomposition holds d^2
    # eigenvector entries) is released before the next coupling's is built
    models, alive = [], []
    post_init = oracle.JointModel.__post_init__

    def tracking_post_init(joint):
        post_init(joint)
        models.append(weakref.ref(joint))
        gc.collect()
        alive.append(sum(ref() is not None for ref in models))

    monkeypatch.setattr(oracle.JointModel, "__post_init__", tracking_post_init)
    cfg = two_beta_spin_boson(tmp_path, config_dir)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    assert alive == [1] * 8


def test_scaling_rows_of_a_beta_grid_equal_one_beta_runs(tmp_path, config_dir):
    # a pinned truncation gives the same probe at every beta, so a two-beta
    # table is the two one-beta tables, byte for byte
    doc = json.loads((config_dir / "scaling_oscillator_mode.json").read_text())
    doc["bath"]["path"] = str(config_dir / doc["bath"]["path"])
    tables = []
    for grid in ({"min": 1.0, "max": 1.5, "n": 2}, {"min": 1.0, "max": 1.0, "n": 1},
                 {"min": 1.5, "max": 1.5, "n": 1}):
        doc["beta_grid"] = grid
        out = tmp_path / f"s{len(tables)}.csv"
        assert main(["scaling", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        tables.append(out.read_text().splitlines(keepends=True))
    both, first, second = tables
    assert len(both) == 7
    assert "".join(both) == "".join(first + second[1:])


def statuses_and_windows(rows):
    return {r["quantity"]: (r["status"], r["window"]) for r in rows}


def test_scaling_fit_reads_the_order_of_synthetic_power_laws():
    g = gamma_grid()
    f_exact = np.full(g.size, 2.0)
    second = SLOPE_WINDOWS["second_order"]
    for power, status in ((4, "PASS"), (3, "FAIL")):
        dev = 0.3 * g**power
        rows = cli._scaling_rows(g, f_exact, dev, dev, f_exact - dev, DEFAULT_TOL)
        assert statuses_and_windows(rows) == {
            "F - I": (status, second), "F - F_pert": (status, second), "state distance": (status, second),
        }
        for row in rows:
            assert row["fit"].slope == pytest.approx(power, abs=1e-6)

    # deviations below order_floor_factor * eps * scale are numerical zeros
    floor = DEFAULT_TOL.order_floor_factor * np.finfo(float).eps
    below = 0.5 * floor * (g / g.max()) ** 4
    rows = cli._scaling_rows(g, f_exact, 2.0 * below, below, f_exact - 2.0 * below, DEFAULT_TOL)
    assert {r["status"] for r in rows} == {"indistinguishable-from-zero"}

    # a refused expansion: no F_pert row, first-order windows for the others
    rows = cli._scaling_rows(g, f_exact, 0.3 * g**2, 0.3 * g, None, DEFAULT_TOL)
    assert statuses_and_windows(rows) == {
        "F - I": ("PASS", SLOPE_WINDOWS["first_order_gap"]),
        "F - F_pert": ("skipped (first-order term present; expansion refused)", None),
        "state distance": ("PASS", SLOPE_WINDOWS["first_order_state"]),
    }


# ---------------------------------------------------------------------------
# per-point calls the benchmark counts
# ---------------------------------------------------------------------------

# perfbench's traced CLI pass counts a point each time its opener is called
# outside every other traced layer: ``RunConfig.build_probe`` for a report or
# sweep row, ``exact_fishers`` for a scaling (beta, gamma) point.  A row loop
# that calls the opener elsewhere still writes the right CSV, but the traced
# run then counts the wrong number of points.
_ENCLOSING = ("load_config", "snr_bound", "exact_fishers")


def _record_openers(monkeypatch):
    """Patch ``RunConfig.build_probe`` and, in every fctherm module holding
    them, the ``_ENCLOSING`` functions; return the list to which each call of
    ``build_probe`` or ``exact_fishers`` appends (name, enclosing calls)."""
    stack, calls = [], []

    def recording(original, name):
        def wrapper(*args, **kwargs):
            if name in ("build_probe", "exact_fishers"):
                calls.append((name, tuple(stack)))
            stack.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
        return wrapper

    monkeypatch.setattr(RunConfig, "build_probe", recording(RunConfig.build_probe, "build_probe"))
    modules = [m for n, m in list(sys.modules.items()) if n == "fctherm" or n.startswith("fctherm.")]
    for name in _ENCLOSING:
        original = getattr(sys.modules["fctherm"], name)
        wrapped = recording(original, name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapped)
    return calls


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_report_and_sweep_build_the_probe_once_per_row_at_top_level(tmp_path, monkeypatch, command):
    doc = dict(QUBIT_OHMIC, sweep={"axis": "theta", "values": [4.71238898038469, 0.7853981633974483]})
    cfg = write_config(tmp_path, doc)
    calls = _record_openers(monkeypatch)
    out = tmp_path / f"{command}.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out)
    assert len(rows) == (3 if command == "report" else 6)
    assert calls.count(("build_probe", ())) == len(rows)
    # the one other build is the config's own check while it loads: none
    # runs inside snr_bound
    assert [c for c in calls if c[1]] == [("build_probe", ("load_config",))]


def test_scaling_calls_exact_fishers_once_per_point_at_top_level(tmp_path, config_dir, monkeypatch):
    cfg = two_beta_spin_boson(tmp_path, config_dir)
    calls = _record_openers(monkeypatch)
    assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "s.csv")]) == 0
    fishers = [stack for name, stack in calls if name == "exact_fishers"]
    assert fishers == [()] * (2 * 8)  # 2 beta x 8 couplings
