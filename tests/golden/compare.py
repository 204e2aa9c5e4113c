"""Stored copies of the seven bundled outputs, and how a fresh run compares.

``golden.json`` lists each output (CLI subcommand, bundled config, file name,
sha256) and the Python, numpy and BLAS that produced the stored copies.

    PYTHONPATH=src python tests/golden/compare.py [--update]

runs every bundled config in-process through ``fctherm.cli.main`` into a
temporary directory and prints, per output, the stored and the new sha256
and the largest relative change of each column that moved.  ``--update``
then replaces the stored copies and rewrites ``golden.json`` with the new
hashes and this environment: a change that moves bytes on purpose commits
that diff together with this table.  ``tests/test_golden.py`` imports the
helpers below.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import io
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from fctherm.cli import main as fctherm_main

GOLDEN_DIR = Path(__file__).resolve().parent
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"
MANIFEST = GOLDEN_DIR / "golden.json"


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas_runtime() -> str | None:
    """Configuration string of the OpenBLAS this process loaded; it names the
    CPU kernel chosen at load time, which decides the rounding of every
    product.  None where there is no OpenBLAS or no /proc."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return " ".join(fn().decode(errors="replace").split())
    return None


def environment() -> dict:
    """Python, numpy and BLAS (library, version and running kernel) here."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas_name = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name, "blas_runtime": _blas_runtime()}


def same_build(recorded: dict, here: dict) -> bool:
    """Whether bytes can be compared: numpy and BLAS as recorded, and known."""
    keys = ("numpy", "blas", "blas_runtime")
    return all(here[k] is not None and here[k] == recorded[k] for k in keys)


def run_outputs(out_dir: Path) -> None:
    """Write every listed output into ``out_dir``, each from a CLI run in this
    interpreter with its console table discarded."""
    for entry in load_manifest()["outputs"]:
        argv = [entry["command"], "--config", str(CONFIG_DIR / f"{entry['config']}.json"),
                "--out", str(out_dir / entry["file"])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = fctherm_main(argv)
        if code != 0:
            raise RuntimeError(f"fctherm {' '.join(argv)} exited with {code}")


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    """A finite numeric cell as a float; None for text, nan and inf."""
    try:
        x = float(cell)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def column_changes(old: list[list[str]], new: list[list[str]]) -> dict[str, float]:
    """Largest change of each column between two tables with one header and
    one row count, relative to the column's largest stored magnitude.  A text,
    nan or inf cell counts only if it differs (then the change is inf), and
    so does any move in a column that is all zeros."""
    out = {}
    for j, name in enumerate(old[0]):
        worst, scale = 0.0, 0.0
        for a, b in zip((row[j] for row in old[1:]), (row[j] for row in new[1:])):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                worst = worst if a == b else math.inf
            else:
                worst, scale = max(worst, abs(y - x)), max(scale, abs(x))
        out[name] = worst / scale if scale else (0.0 if worst == 0.0 else math.inf)
    return out


def main(argv: list[str]) -> int:
    update = argv == ["--update"]
    if argv and not update:
        print("usage: compare.py [--update]", file=sys.stderr)
        return 2
    manifest = load_manifest()
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        run_outputs(fresh)
        print(f"stored: {json.dumps(manifest['environment'])}")
        print(f"here:   {json.dumps(environment())}")
        for entry in manifest["outputs"]:
            name = entry["file"]
            old, new = read_csv(GOLDEN_DIR / name), read_csv(fresh / name)
            new_sha = sha256(fresh / name)
            print(f"\n{name}\n  old {entry['sha256']}\n  new {new_sha}")
            if old[0] != new[0] or len(old) != len(new):
                print(f"  header or row count differs: {len(old) - 1} -> {len(new) - 1} rows")
                continue
            moved = {k: v for k, v in column_changes(old, new).items() if v}
            for column, change in moved.items():
                what = ("a text, nan or all-zero cell moved" if math.isinf(change)
                        else f"largest relative change {change:.3e}")
                print(f"  {column:<16} {what}")
            if not moved:
                print("  no cell moved")
            entry["sha256"] = new_sha
        if update:
            for entry in manifest["outputs"]:
                shutil.copyfile(fresh / entry["file"], GOLDEN_DIR / entry["file"])
            manifest["environment"] = environment()
            MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
            print(f"\nupdated the stored copies and {MANIFEST.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
