"""The seven bundled outputs against their stored copies in ``tests/golden``.

Every bundled config runs once, in this interpreter, through ``cli.main``.
Each output must keep its header, its row count and every non-numeric cell
(status words, ``nan``, ``true``) exactly, and every numeric cell within
``RTOL`` of the stored one.  Where numpy and BLAS are the ones that produced
the copies, its sha256 must match as well; elsewhere that test is skipped
with the reason, so a run reports which check it made.
"""

from __future__ import annotations

import pytest

from golden.compare import (
    GOLDEN_DIR,
    column_changes,
    environment,
    load_manifest,
    read_csv,
    run_outputs,
    same_build,
    sha256,
)

# Fixed before any run.  A numeric cell may move by RTOL times the largest
# stored magnitude of its column.  Another numpy or BLAS build rounds each
# float64 operation differently, at about 1e-16; the deepest cancellation in
# the outputs, F - I at gamma = 1e-2 in the scaling fits (gamma^4 = 1e-8 of
# F), magnifies that to about 1e-8.  A changed formula or rule moves cells by
# far more than 1e-6.
RTOL = 1e-6

MANIFEST = load_manifest()
OUTPUTS = MANIFEST["outputs"]
IDS = [entry["file"].removesuffix(".csv") for entry in OUTPUTS]


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    run_outputs(out)
    return out


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_bundled_output_matches_its_stored_copy(fresh_dir, entry):
    stored = GOLDEN_DIR / entry["file"]
    assert sha256(stored) == entry["sha256"], "stored copy and golden.json disagree"
    old, new = read_csv(stored), read_csv(fresh_dir / entry["file"])
    assert new[0] == old[0]
    assert len(new) == len(old)
    moved = {k: v for k, v in column_changes(old, new).items() if v > RTOL}
    assert not moved, f"columns beyond the relative bound {RTOL:g}: {moved}"


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_bundled_output_keeps_its_stored_sha256(fresh_dir, entry):
    recorded, here = MANIFEST["environment"], environment()
    if not same_build(recorded, here):
        pytest.skip(f"numpy/BLAS here {here} differ from the recorded {recorded}: "
                    f"only the value bound {RTOL:g} was checked")
    assert sha256(fresh_dir / entry["file"]) == entry["sha256"]
