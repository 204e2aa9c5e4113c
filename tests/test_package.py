"""The package's export list matches what it binds."""

from __future__ import annotations

import types

import fctherm


def test_all_lists_exactly_the_public_names():
    # a function deleted from its module cannot linger in the export list,
    # and a new public name is not left out of it
    bound = {
        name
        for name, value in vars(fctherm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(fctherm.__all__) == len(set(fctherm.__all__))
    assert set(fctherm.__all__) == bound | {"__version__"}
