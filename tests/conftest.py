"""Shared fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from fctherm import _kernels, linalg, models

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


def clear_caches() -> None:
    """Empty every cache the library keeps across calls: the imaginary-time
    rules, the continuum correlators, the built-in probe spectra and the
    kernels' exponential tables."""
    for cache in (linalg.quad_imaginary_time, models._continuum_correlation,
                  models._qubit_spectrum, models._oscillator_spectrum):
        cache.cache_clear()
    _kernels._gap_tables.clear()
    _kernels._sigma_tables.clear()


@pytest.fixture
def cold_caches():
    """Empty the library's caches before and after the test, so it builds what
    a fresh process would; the test may call the fixture's value to empty
    them again."""
    clear_caches()
    yield clear_caches
    clear_caches()


@pytest.fixture
def built_rules(monkeypatch, cold_caches) -> list:
    """The kind of every QuadratureRule the library builds while the test
    runs, starting from empty rule caches."""
    built = []

    class CountingRule(linalg.QuadratureRule):
        def __post_init__(self):
            built.append(self.kind)
            super().__post_init__()

    monkeypatch.setattr(linalg, "QuadratureRule", CountingRule)
    return built
