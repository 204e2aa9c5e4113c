"""The byte checks of the CI workflow, run with the tests.

OpenBLAS may split a product across threads and sum the parts in another
order, and every cache the library keeps hands a later run what it built for
an earlier one; neither may move a byte of any output.  So the seven bundled
configs run through the console script in fresh processes on one BLAS
thread, with numpy's RuntimeWarnings raised as errors, and are compared with
their stored copies in ``tests/golden`` as ``test_golden.py`` compares its
in-process run (the value bound everywhere, the sha256 where numpy and BLAS
are the recorded ones).  A dense 128-level probe, whose products pass
OpenBLAS's threading threshold where no bundled config's do, is reported at
the default thread count and on one thread; and a second in-process pass of
the bundled configs, on the caches the first left behind, must give the
first pass's bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT, clear_caches
from golden.compare import (
    CONFIG_DIR,
    GOLDEN_DIR,
    column_changes,
    environment,
    load_manifest,
    read_csv,
    run_outputs,
    same_build,
    sha256,
)
from test_golden import RTOL

MANIFEST = load_manifest()
OUTPUTS = MANIFEST["outputs"]
IDS = [entry["file"].removesuffix(".csv") for entry in OUTPUTS]


def console(*args: str, blas_threads: str | None) -> None:
    """``fctherm *args`` in a fresh process with RuntimeWarnings raised as
    errors, on ``blas_threads`` OpenBLAS threads (None: OpenBLAS's default)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-m", "fctherm.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def one_thread_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("one-thread")
    for entry in OUTPUTS:
        console(entry["command"], "--config", str(CONFIG_DIR / f"{entry['config']}.json"),
                "--out", str(out / entry["file"]), blas_threads="1")
    return out


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_one_thread_output_matches_its_stored_copy(one_thread_dir, entry):
    fresh = one_thread_dir / entry["file"]
    old, new = read_csv(GOLDEN_DIR / entry["file"]), read_csv(fresh)
    assert new[0] == old[0]
    assert len(new) == len(old)
    moved = {k: v for k, v in column_changes(old, new).items() if v > RTOL}
    assert not moved, f"columns beyond the relative bound {RTOL:g}: {moved}"
    recorded, here = MANIFEST["environment"], environment()
    if not same_build(recorded, here):
        pytest.skip(f"numpy/BLAS here {here} differ from the recorded {recorded}: "
                    f"only the value bound {RTOL:g} was checked")
    assert sha256(fresh) == entry["sha256"]


def test_dense_probe_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # at d = 128 the row's (d x d)(d x d) basis rotation and (d x d)(d x n_u)
    # sigma products, about 2e6 and 1e6 multiply-adds, are past OpenBLAS's
    # threading threshold (m n k above about 2.6e5); a 5-level probe would
    # run single-threaded at both thread counts
    d = 128
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    h = q @ np.diag(np.sort(rng.uniform(0.0, 3.0, d))) @ q.T
    s = rng.normal(size=(d, d)) / np.sqrt(d)

    def pairs(m):
        return [[float(x), 0.0] for x in m.ravel()]

    probe = tmp_path / "probe-dense.json"
    probe.write_text(json.dumps({"dim": d, "H": pairs(0.5 * (h + h.T)), "S": pairs(s + s.T),
                                 "dim_exponent": 0.0}))
    config = tmp_path / "report-dense.json"
    config.write_text(json.dumps({
        "probe": {"kind": "custom-matrix-file", "params": {"path": str(probe)}},
        "bath": {"kind": "ohmic", "s": 1.0, "Omega": 20.0},
        "gamma": 0.05, "beta_grid": {"min": 0.1, "max": 10.0, "n": 25, "spacing": "log"}}))
    outs = {}
    for threads in (None, "1"):
        outs[threads] = tmp_path / f"report-dense-{threads or 'default'}.csv"
        console("report", "--config", str(config), "--out", str(outs[threads]),
                blas_threads=threads)
    assert len(read_csv(outs[None])) == 26
    assert outs[None].read_bytes() == outs["1"].read_bytes()


@pytest.fixture(scope="module")
def in_process_passes(tmp_path_factory):
    """Two in-process passes of the bundled configs, the first on empty caches."""
    clear_caches()
    passes = [tmp_path_factory.mktemp(name) for name in ("cold", "warm")]
    for out in passes:
        run_outputs(out)
    clear_caches()
    return passes


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_warm_in_process_pass_gives_the_bytes_of_the_first(in_process_passes, entry):
    cold, warm = (out / entry["file"] for out in in_process_passes)
    assert warm.read_bytes() == cold.read_bytes()
