"""The seven bundled outputs against their stored copies in ``tests/golden``.

Both tests read the cold pass of the session fixture ``in_process_passes``
(``conftest.py``): every bundled config run once, in this interpreter,
through ``cli.main``, on empty caches.  ``test_byte_checks.py`` reads the
same pass, so the session runs the configs in-process twice (cold and warm),
not once more here.  Each output must keep its header, its row count and
every non-numeric cell (status words, ``nan``, ``true``) exactly, and every
numeric cell within ``RTOL`` of the stored one; the stored copy must match
its sha256 in ``golden.json``.  Where numpy and BLAS are the ones that produced
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


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_bundled_output_matches_its_stored_copy(in_process_passes, entry):
    stored = GOLDEN_DIR / entry["file"]
    assert sha256(stored) == entry["sha256"], "stored copy and golden.json disagree"
    old, new = read_csv(stored), read_csv(in_process_passes[0] / entry["file"])
    assert new[0] == old[0]
    assert len(new) == len(old)
    moved = {k: v for k, v in column_changes(old, new).items() if v > RTOL}
    assert not moved, f"columns beyond the relative bound {RTOL:g}: {moved}"


@pytest.mark.parametrize("entry", OUTPUTS, ids=IDS)
def test_bundled_output_keeps_its_stored_sha256(in_process_passes, entry):
    recorded, here = MANIFEST["environment"], environment()
    if not same_build(recorded, here):
        pytest.skip(f"numpy/BLAS here {here} differ from the recorded {recorded}: "
                    f"only the value bound {RTOL:g} was checked")
    assert sha256(in_process_passes[0] / entry["file"]) == entry["sha256"]
