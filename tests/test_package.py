"""The package's export list matches what it binds, and every cache it keeps
is bounded."""

from __future__ import annotations

import pickle
import types

import numpy as np
import pytest

import fctherm
from conftest import library_caches
from fctherm import _kernels, linalg, models


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


_LEVELS = np.arange(12.0).tobytes()
_DISCRETE_BATH = models.bath_qubit(0.8)
# One call per key k, a distinct key for every k, returning what each cache
# keeps.  A cache the library adds fails the test below until it has an entry.
_FILL = {
    "fctherm._kernels._gap_tables":
        lambda k: _kernels._gap_tables(_LEVELS, np.linspace(0.0, 1.0, 5 + k).tobytes()),
    "fctherm._kernels._sigma_tables":
        lambda k: _kernels._sigma_tables(_LEVELS, np.linspace(0.0, 1.0, 5 + k).tobytes()),
    "fctherm.linalg._leggauss": lambda k: linalg._leggauss(1 + k),
    "fctherm.linalg._laggauss": lambda k: linalg._laggauss(1 + k),
    "fctherm.linalg.quad_imaginary_time": lambda k: linalg.quad_imaginary_time(16, 1.0 + k),
    "fctherm.models._qubit_spectrum": lambda k: models._qubit_spectrum(1.0 + k),
    "fctherm.models._oscillator_spectrum": lambda k: models._oscillator_spectrum(1.0, 10 + k),
    "fctherm.models._continuum_correlation":
        lambda k: models.bath_correlation(models.ContinuumBath(1.0, 100.0), 0.5 + 0.25 * k),
    "fctherm.models._discrete_correlation":
        lambda k: models.bath_correlation(_DISCRETE_BATH, 0.5 + 0.25 * k),
    "fctherm.models._bath_tables":
        lambda k: models.bath_correlation(models.ContinuumBath(1.0, 100.0), 1.0)
        .value_and_dbeta(np.linspace(0.0, 1.0, 5 + k)),
}
# Sizes other than CACHE_SIZE: the base rules are keyed on a node count, of
# which a run asks for several, and each cached correlator has two tables.
_SIZES = {"fctherm.linalg._leggauss": 128, "fctherm.linalg._laggauss": 128,
          "fctherm.models._bath_tables": 2 * linalg.CACHE_SIZE}


@pytest.mark.parametrize("name", sorted(library_caches()))
def test_every_cache_is_bounded(cold_caches, name):
    cache = library_caches()[name]
    maxsize = cache.cache_info().maxsize
    assert maxsize == _SIZES.get(name, linalg.CACHE_SIZE)
    first = _FILL[name](0)
    for k in range(1, maxsize + 1):
        _FILL[name](k)
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize
    # the evicted first entry is built again, to the same bytes
    again = _FILL[name](0)
    assert again is not first
    assert pickle.dumps(again) == pickle.dumps(first)
