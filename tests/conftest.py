"""Shared fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from fctherm import linalg, models

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture
def cold_caches():
    """Empty the imaginary-time rule and continuum-correlator caches before
    and after the test, so it builds what a fresh process would."""
    caches = (linalg.quad_imaginary_time, models._continuum_correlation)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


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
