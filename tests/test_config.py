"""Config parsing: strict validation, round-trip identity, materialisation."""

from __future__ import annotations

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from fctherm import ConfigError, GridSpec, RunConfig, default_gamma_grid, load_config, parse_config
from fctherm import config
from fctherm.cli import main
from fctherm.models import DEFAULT_FREQ_NODES
from fctherm.perturbation import DEFAULT_TIME_NODES

BASE = {
    "probe": {"kind": "qubit", "params": {"epsilon": 1.0, "theta": 0.5}},
    "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0},
    "gamma": 0.1,
    "beta_grid": {"min": 0.5, "max": 2.0, "n": 3},
}


def cfg_with(**patch) -> dict:
    doc = json.loads(json.dumps(BASE))
    doc.update(patch)
    return doc


# ---------------------------------------------------------------------------
# validation errors carry the dotted path of the offending field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("probe"), "probe: required"),
        (lambda d: d.pop("gamma"), "gamma: required"),
        (lambda d: d.update(gamma=-0.1), "gamma: must be >= 0"),
        # Python's json reads NaN and Infinity as floats
        (lambda d: d.update(gamma=json.loads("NaN")), "gamma: must be finite"),
        (lambda d: d["beta_grid"].update(max=json.loads("Infinity")),
         "beta_grid.max: must be finite"),
        (lambda d: d.update(extra=1), "config: unknown field"),
        (lambda d: d["probe"].update(kind="spin-7"), "probe.kind"),
        (lambda d: d["probe"]["params"].update(epsilon=0.0), "probe.params.epsilon"),
        (lambda d: d["probe"]["params"].update(zeta=2), "probe.params: unknown field"),
        (
            lambda d: d.update(probe={"kind": "oscillator", "params": {"beta_design": 1.0}}),
            "probe.params: unknown field(s) beta_design",
        ),
        (lambda d: d["bath"].pop("s"), "bath.s: required for an ohmic-family bath"),
        (lambda d: d["bath"].update(Omega=-1.0), "bath.Omega"),
        (
            lambda d: d.update(probe={"kind": "custom-matrix-file", "params": {}}),
            "probe.params.path: required for custom-matrix-file",
        ),
        (lambda d: d.update(bath={"kind": "discrete-file"}),
         "bath.path: required for a discrete-file bath"),
        (lambda d: d["beta_grid"].pop("n"), "beta_grid.n: required"),
        (lambda d: d["beta_grid"].update(n=0), "beta_grid.n: must be >= 1"),
        (lambda d: d["beta_grid"].update(min=5.0), "beta_grid: max must be >= min"),
        (lambda d: d["beta_grid"].update(max=0.5), "beta_grid: max must exceed min for n > 1"),
        (lambda d: d["beta_grid"].update(spacing="cubic"), "beta_grid.spacing"),
        (lambda d: d.update(quadrature={"n_u": 0}), "quadrature.n_u"),
        (lambda d: d.update(quadrature={"n_u": 64.0}), "quadrature.n_u: expected an integer"),
        (lambda d: d.update(quadrature=[]), "quadrature: expected an object"),
        (lambda d: d.update(tolerances={"bogus": 1e-9}), "tolerances.bogus: unknown tolerance name"),
        (
            # x_matrix picks its near-degenerate form from beta * gap, not from a knob
            lambda d: d.update(tolerances={"degeneracy_rel": 1e-10}),
            "tolerances.degeneracy_rel: unknown tolerance name",
        ),
        (lambda d: d.update(tolerances={"unit_trace": "tight"}), "tolerances.unit_trace: expected"),
        (lambda d: d.update(output=7), "output: expected a path string"),
        (lambda d: d.update(sweep={"axis": "phi", "values": [1.0]}), "sweep.axis"),
        (lambda d: d.update(sweep={"axis": "gamma", "values": []}), "sweep.values"),
        (lambda d: d.update(sweep={"axis": "gamma", "values": [0.1, -0.2]}), "sweep.values[1]"),
        (lambda d: d.update(scaling={"n": 4}), "scaling.n: must be >= 5"),
        (
            lambda d: d.update(scaling={"gamma_min": 0.1, "gamma_max": 0.1}),
            "scaling: gamma_max must exceed gamma_min",
        ),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    doc = cfg_with()
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert fragment in str(err.value), str(err.value)


def test_theta_sweep_requires_qubit_probe():
    doc = cfg_with(
        probe={"kind": "oscillator", "params": {"omega0": 1.0}},
        bath={"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0},
        sweep={"axis": "theta", "values": [0.1, 0.2]},
    )
    with pytest.raises(ConfigError, match="theta sweeps require a qubit probe"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# round trips and grids
# ---------------------------------------------------------------------------


def test_parse_serialize_parse_is_identity():
    doc = cfg_with(
        quadrature={"n_u": 32, "n_omega": 96},
        tolerances={"order_floor_factor": 1e2},
        output="out.csv",
        sweep={"axis": "gamma", "min": 0.01, "max": 0.1, "n": 4, "spacing": "log"},
        scaling={"gamma_min": 0.02, "gamma_max": 0.2, "n": 6},
    )
    cfg = parse_config(doc)
    again = parse_config(json.loads(cfg.to_json()))
    assert again.to_json() == cfg.to_json()
    assert again.probe_params == cfg.probe_params
    assert again.sweep == cfg.sweep
    assert again.scaling == cfg.scaling


def test_grid_points_spacings():
    lin = GridSpec(0.0, 1.0, 5).points()
    assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
    log = GridSpec(0.1, 10.0, 3, "log").points()
    assert np.allclose(log, [0.1, 1.0, 10.0])
    single = GridSpec(0.7, 0.7, 1).points()
    assert single.tolist() == [0.7]


def test_sweep_points_from_values_and_grid():
    cfg = parse_config(cfg_with(sweep={"axis": "theta", "values": [0.3, 1.2]}))
    assert cfg.sweep.points().tolist() == [0.3, 1.2]
    cfg = parse_config(
        cfg_with(sweep={"axis": "gamma", "min": 0.01, "max": 0.04, "n": 3, "spacing": "linear"})
    )
    assert np.allclose(cfg.sweep.points(), [0.01, 0.025, 0.04])


def test_scaling_defaults():
    cfg = parse_config(cfg_with(scaling={}))
    pts = cfg.scaling.points()
    assert pts.size == 8
    assert pts[0] == pytest.approx(1e-2) and pts[-1] == pytest.approx(1e-1)
    assert np.array_equal(pts, default_gamma_grid())
    # a config with no scaling section gets the same window, and writes it
    assert parse_config(cfg_with()).scaling == cfg.scaling
    assert json.loads(parse_config(cfg_with()).to_json())["scaling"] == {
        "gamma_min": 1e-2, "gamma_max": 1e-1, "n": 8}
    # a config with no quadrature section, or an empty one, gets the library's rule sizes
    for doc in (cfg_with(), cfg_with(quadrature={})):
        cfg = parse_config(doc)
        assert (cfg.n_u, cfg.n_omega) == (DEFAULT_TIME_NODES, DEFAULT_FREQ_NODES)


# ---------------------------------------------------------------------------
# materialisation
# ---------------------------------------------------------------------------


def test_build_probe_theta_override():
    cfg = parse_config(cfg_with())
    p = cfg.build_probe()
    assert p.params["theta"] == 0.5
    p2 = cfg.build_probe(theta=1.5)
    assert p2.params["theta"] == 1.5


def test_build_oscillator_sizes_truncation_from_beta():
    doc = cfg_with(
        probe={"kind": "oscillator", "params": {"omega0": 1.0}},
        bath={"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0},
    )
    cfg = parse_config(doc)
    cold = cfg.build_probe(beta=2.0)
    colder = cfg.build_probe(beta=0.2)
    assert colder.dim > cold.dim  # warmer target needs more levels


def test_tail_population_override_sizes_the_oscillator():
    # the top-level population bound comes from the config's tolerances:
    # at beta = 0.1, 1e-3 needs 47 levels where the default 1e-8 needs 162
    probe = {"kind": "oscillator", "params": {"omega0": 1.0}}
    bath = {"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0}
    loose = parse_config(cfg_with(probe=probe, bath=bath,
                                  tolerances={"tail_population": 1e-3}))
    default = parse_config(cfg_with(probe=probe, bath=bath))
    assert loose.build_probe(beta=0.1).dim == 47
    assert default.build_probe(beta=0.1).dim == 162


OSCILLATOR = {
    "probe": {"kind": "oscillator", "params": {"omega0": 1.0}},
    "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0},
}
OVERSIZED = {
    # field: patch; each of these once ended in numpy's MemoryError (exit 1)
    "quadrature.n_omega": {"quadrature": {"n_omega": 10**6}},
    "quadrature.n_u": {"quadrature": {"n_u": 10**6}},
    "probe.params.n_trunc": {**OSCILLATOR, "probe": {"kind": "oscillator",
                                                     "params": {"n_trunc": 10**6}}},
    "beta_grid.n": {"beta_grid": {"min": 0.5, "max": 2.0, "n": 10**6}},
    "sweep.n": {"sweep": {"axis": "gamma", "min": 0.01, "max": 0.1, "n": 10**6}},
    "scaling.n": {"scaling": {"n": 10**6}},
}


def _parse_peak_bytes(doc) -> tuple[Exception | None, int]:
    """The error parse_config raised on ``doc`` (None if it loaded) and the
    peak of Python and numpy allocations meanwhile."""
    tracemalloc.start()
    try:
        parse_config(doc)
        error = None
    except ConfigError as exc:
        error = exc
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return error, peak


@pytest.mark.parametrize("field", sorted(OVERSIZED))
def test_oversized_fields_are_refused_before_any_array_is_built(tmp_path, field):
    doc = cfg_with(**OVERSIZED[field])
    error, peak = _parse_peak_bytes(doc)
    assert error is not None and str(error).startswith(f"{field}: must be <= "), error
    assert peak < 2**20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2


def test_an_oversized_automatic_truncation_is_refused_before_it_is_built():
    # at beta = 1e-3 the top level falls below 1e-8 only at 11514 levels
    doc = cfg_with(**OSCILLATOR, beta_grid={"min": 1e-3, "max": 2.0, "n": 3})
    error, peak = _parse_peak_bytes(doc)
    assert error is not None and "probe.params.n_trunc: the truncation sized at" in str(error)
    assert "11514 levels" in str(error)
    assert peak < 2**20
    doc["beta_grid"]["min"] = 0.1  # 162 levels
    assert parse_config(doc).build_probe(beta=0.1).dim == 162


def test_largest_sizes_load():
    grid = {"min": 0.5, "max": 2.0, "n": config.MAX_GRID_POINTS}
    doc = cfg_with(
        beta_grid=grid,
        quadrature={"n_u": config.MAX_TIME_NODES, "n_omega": config.MAX_FREQ_NODES},
        sweep={"axis": "gamma", "min": 0.01, "max": 0.1, "n": config.MAX_GRID_POINTS},
        scaling={"n": config.MAX_GRID_POINTS},
    )
    cfg = parse_config(doc)
    assert cfg.beta_grid.points().size == cfg.sweep.points().size == config.MAX_GRID_POINTS
    pinned = cfg_with(**OSCILLATOR)
    pinned["probe"]["params"]["n_trunc"] = config.MAX_OSCILLATOR_LEVELS
    assert parse_config(pinned).build_probe(beta=0.5).dim == config.MAX_OSCILLATOR_LEVELS


@pytest.mark.parametrize("tail", [0.0, -1.0, 1.0])
def test_tail_population_outside_the_unit_interval_is_a_config_error(tmp_path, config_dir, tail):
    # 0 made the truncation log(0) and int(inf) (OverflowError, exit 3); -1
    # made it int(NaN)
    doc = json.loads((config_dir / "report_oscillator_ohmic.json").read_text())
    doc["tolerances"] = {"tail_population": tail}
    with pytest.raises(ConfigError, match="tail_population must lie in"):
        parse_config(doc)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2


def test_ohmic_exponent_defaults_from_probe_dimension():
    qubit_cfg = parse_config(cfg_with())
    assert qubit_cfg.build_bath().dim_exponent == 1.0
    osc_cfg = parse_config(
        cfg_with(probe={"kind": "oscillator", "params": {"omega0": 1.0}})
    )
    assert osc_cfg.build_bath().dim_exponent == 2.0


def test_mismatched_exponent_is_a_config_error():
    doc = cfg_with(bath={"kind": "ohmic", "s": 1.0, "Omega": 100.0, "a": 2.0})
    with pytest.raises(ConfigError, match="failed to materialise"):
        parse_config(doc)


@pytest.mark.parametrize(
    "probe, a",
    [
        ({"kind": "oscillator", "params": {"n_trunc": 60}}, 1.0),
        ({"kind": "custom-matrix-file", "params": {"path": "probe_qubit_z.json"}}, 2.0),
    ],
)
def test_mismatched_exponent_without_a_probe_build(tmp_path, config_dir, probe, a):
    (tmp_path / "probe_qubit_z.json").write_text((config_dir / "probe_qubit_z.json").read_text())
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg_with(probe=probe,
                                        bath={"kind": "ohmic", "s": 1.0, "Omega": 10.0, "a": a})))
    with pytest.raises(ConfigError, match="failed to materialise.*dim_exponent"):
        load_config(path)


def test_build_bath_reads_the_coupling_dimension_without_a_probe(monkeypatch):
    cfgs = [parse_config(cfg_with(probe=probe)) for probe in (
        BASE["probe"], {"kind": "oscillator", "params": {"omega0": 1.0}})]
    built = [cfg.build_probe(beta=1.0).dim_exponent for cfg in cfgs]

    def no_probe(*args, **kwargs):
        raise AssertionError("build_bath built a probe")

    monkeypatch.setattr(RunConfig, "build_probe", no_probe)
    for cfg, mu in zip(cfgs, built):
        assert cfg.probe_dim_exponent() == mu
        assert cfg.build_bath().dim_exponent == 1.0 - 2.0 * mu


def test_tolerance_overrides_apply():
    cfg = parse_config(cfg_with(tolerances={"order_floor_factor": 1e2, "fd_step_rel": 1e-4}))
    tol = cfg.tolerances()
    assert tol.order_floor_factor == 1e2 and tol.fd_step_rel == 1e-4


def test_discrete_file_bath_with_relative_path(tmp_path, config_dir):
    doc = cfg_with(bath={"kind": "discrete-file", "path": "bath_qubit_x.json"})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    # relative bath paths resolve against the config's own directory, so a
    # copy of the operator file must sit next to the config
    (tmp_path / "bath_qubit_x.json").write_text(
        (config_dir / "bath_qubit_x.json").read_text()
    )
    cfg = load_config(path)
    bath = cfg.build_bath()
    assert bath.hamiltonian.shape == (2, 2)


def test_custom_probe_from_file(tmp_path, config_dir):
    doc = cfg_with(
        probe={"kind": "custom-matrix-file", "params": {"path": "probe_qubit_z.json"}},
        bath={"kind": "ohmic", "s": 1.0, "Omega": 100.0},
    )
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    (tmp_path / "probe_qubit_z.json").write_text(
        (config_dir / "probe_qubit_z.json").read_text()
    )
    cfg = load_config(path)
    probe = cfg.build_probe()
    assert probe.kind == "custom"
    assert probe.dim == 2


def test_config_models_are_built_once(config_dir):
    cfg = load_config(config_dir / "scaling_oscillator_mode.json")
    bath = cfg.build_bath()
    assert cfg.build_bath() is bath
    assert cfg.tolerances() is cfg.tolerances()
    for array in (bath.hamiltonian, bath.coupling, bath.decomp.evals, bath.decomp.evecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0.0
    with pytest.raises(AttributeError):  # dataclasses.FrozenInstanceError
        bath.coupling = bath.hamiltonian
    probe_cfg = load_config(config_dir / "scaling_dissipative.json")  # custom-matrix-file probe
    probe = probe_cfg.build_probe()
    assert probe_cfg.build_probe(beta=2.0) is probe
    for array in (probe.hamiltonian, probe.coupling, probe.decomp.evals, probe.decomp.evecs):
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0.0


def test_unpickled_config_models_are_read_only(monkeypatch, config_dir):
    # a worker process gets the config pickled; its bath is built again
    # through DiscreteBath's checks and its custom probe from the operators
    # the config carries, so both hold read-only arrays and no file is read
    cfg = load_config(config_dir / "scaling_dissipative.json")  # both from files
    bath, probe = cfg.build_bath(), cfg.build_probe()
    bath.decomp  # computed before pickling, as a run would have
    copy = pickle.loads(pickle.dumps(cfg))

    def unread(path):
        raise AssertionError(f"{path} read again")

    monkeypatch.setattr(config, "load_operator_pair", unread)
    bath2, probe2 = copy.build_bath(), copy.build_probe()
    assert copy.build_bath() is bath2 and copy.build_probe() is probe2
    pairs = [(bath.hamiltonian, bath2.hamiltonian), (bath.coupling, bath2.coupling),
             (bath.decomp.evals, bath2.decomp.evals), (bath.decomp.evecs, bath2.decomp.evecs),
             (probe.hamiltonian, probe2.hamiltonian), (probe.coupling, probe2.coupling),
             (probe.decomp.evals, probe2.decomp.evals), (probe.decomp.evecs, probe2.decomp.evecs)]
    for original, unpickled in pairs:
        assert np.array_equal(unpickled, original)
        with pytest.raises(ValueError, match="read-only"):
            unpickled[0, ...] = 0.0


@pytest.mark.parametrize("command, doc", [
    ("scaling", "scaling_oscillator_mode.json"),
    ("report", {"probe": {"kind": "custom-matrix-file", "params": {"path": "probe_qubit_x.json"}},
                "bath": {"kind": "ohmic", "s": 1.0, "Omega": 100.0},
                "gamma": 0.05, "beta_grid": {"min": 0.5, "max": 2.0, "n": 4}}),
], ids=["scaling-discrete-bath", "report-custom-probe"])
def test_each_operator_file_is_read_once_per_run(monkeypatch, tmp_path, config_dir,
                                                 command, doc):
    reads, probes = [], []

    def counted(function, calls):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(config, "load_operator_pair", counted(config.load_operator_pair, reads))
    monkeypatch.setattr(config, "probe_custom", counted(config.probe_custom, probes))
    if isinstance(doc, dict):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        (tmp_path / "probe_qubit_x.json").write_text((config_dir / "probe_qubit_x.json").read_text())
    else:
        path = config_dir / doc
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0
    assert len(reads) == 1
    assert len(probes) == (command == "report")  # one diagonalisation for every row


def test_load_config_wraps_io_and_json_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


def test_missing_matrix_file_is_a_config_error(tmp_path):
    doc = cfg_with(bath={"kind": "discrete-file", "path": "nowhere.json"})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="failed to materialise"):
        load_config(path)
