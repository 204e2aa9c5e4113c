"""CLI contract: CSV layout, determinism, exit codes, scaling statuses."""

from __future__ import annotations

import json
import math
import warnings

import pytest

from fctherm import TruncationWarning, cli, load_config, perturbation
from fctherm.cli import CSV_COLUMNS, main

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


def test_parallel_rows_match_serial_exactly(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "par.csv"
    main(["report", "--config", cfg, "--out", str(serial)])
    assert main(["report", "--config", cfg, "--out", str(parallel), "--workers", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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


def test_exit_2_on_bad_worker_count(tmp_path):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    assert main(["report", "--config", cfg, "--workers", "0"]) == 2


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
    ],
)
def test_exit_2_on_removed_tolerance_field(tmp_path, capsys, name):
    cfg = write_config(tmp_path, dict(QUBIT_OHMIC, tolerances={name: 1e-14}))
    assert main(["report", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2
    assert f"tolerances.{name}: unknown tolerance name" in capsys.readouterr().err


def test_exit_2_on_unwritable_output_path(tmp_path, capsys):
    cfg = write_config(tmp_path, QUBIT_OHMIC)
    assert main(["report", "--config", cfg, "--out", str(tmp_path)]) == 2  # a directory
    assert "I/O error" in capsys.readouterr().err


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
    # same x_matrix
    betas = []
    original = perturbation.x_matrix

    def counting(probe, bath, beta, *args, **kwargs):
        betas.append(beta)
        return original(probe, bath, beta, *args, **kwargs)

    monkeypatch.setattr(perturbation, "x_matrix", counting)
    monkeypatch.setattr(cli, "x_matrix", counting, raising=False)
    path = config_dir / name
    assert main(["scaling", "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 0
    assert betas == list(load_config(path).beta_grid.points())


def test_scaling_output_is_byte_stable(tmp_path, config_dir):
    cfg = str(config_dir / "scaling_spin_boson.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["scaling", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["scaling", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
