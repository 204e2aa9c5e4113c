"""Shared fixtures."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import fctherm
from fctherm import linalg
from golden.compare import run_outputs

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


def library_caches() -> dict:
    """Every cache the library keeps across calls, by dotted name: each object
    with ``cache_clear`` that a ``fctherm`` module defines (not one it imports)."""
    caches = {}
    for info in pkgutil.iter_modules(fctherm.__path__, "fctherm."):
        for name, value in vars(importlib.import_module(info.name)).items():
            if hasattr(value, "cache_clear") and value.__module__ == info.name:
                caches[f"{info.name}.{name}"] = value
    return caches


def clear_caches() -> None:
    """Empty every cache the library keeps across calls."""
    for cache in library_caches().values():
        cache.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the library's caches before and after the test, so it builds what
    a fresh process would; the test may call the fixture's value to empty
    them again."""
    clear_caches()
    yield clear_caches
    clear_caches()


@pytest.fixture(scope="session")
def in_process_passes(tmp_path_factory) -> list[Path]:
    """Two in-process passes of the bundled configs through ``cli.main``, the
    first on empty caches, the second on the caches the first left behind.
    ``test_golden.py`` compares the first with the stored copies,
    ``test_byte_checks.py`` and ``test_cli.py`` compare both with fresh
    processes and each other, and ``test_acceptance.py`` reads the figure
    reports of the first instead of running those configs again."""
    clear_caches()
    passes = [tmp_path_factory.mktemp(name) for name in ("cold", "warm")]
    for out in passes:
        run_outputs(out)
    clear_caches()
    return passes


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
