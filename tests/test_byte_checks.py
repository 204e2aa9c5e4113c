"""Byte checks on the bundled outputs that hold on any numpy/BLAS build.

OpenBLAS may split a product across threads and sum the parts in another
order, and every cache the library keeps hands a later run what it built for
an earlier one; neither may move a byte of any output.  So the seven bundled
configs run through the console script in fresh processes on one BLAS
thread, with numpy's RuntimeWarnings raised as errors.  The session fixture
``in_process_passes`` (``conftest.py``) runs them in this process, at its
thread count (OpenBLAS's default unless ``OPENBLAS_NUM_THREADS`` is set),
cold and warm: the cold pass, on empty caches, must give the one-thread
processes' bytes, and the warm one, on the caches the cold one left behind,
the cold one's.  ``test_golden.py`` compares the cold pass with the stored
copies in ``tests/golden``, so the one-thread outputs are compared with them
too.  These comparisons need no stored copy, so they also run where the
sha256 test is skipped.  A dense 128-level probe, whose
products pass OpenBLAS's threading threshold where no bundled config's do,
is reported at the default thread count and on one thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO_ROOT
from golden.compare import CONFIG_DIR, load_manifest, read_csv

OUTPUTS = load_manifest()["outputs"]
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


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_one_thread_fresh_process_gives_the_cold_pass_bytes(one_thread_dir, in_process_passes,
                                                           entry):
    fresh, cold = one_thread_dir / entry["file"], in_process_passes[0] / entry["file"]
    assert fresh.read_bytes() == cold.read_bytes()


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_warm_in_process_pass_gives_the_bytes_of_the_first(in_process_passes, entry):
    cold, warm = (out / entry["file"] for out in in_process_passes)
    assert warm.read_bytes() == cold.read_bytes()
