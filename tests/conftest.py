"""Shared fixtures."""

from __future__ import annotations

from pathlib import Path

import pytest

from fctherm import linalg

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def config_dir() -> Path:
    return CONFIG_DIR


@pytest.fixture
def built_rules(monkeypatch) -> list:
    """The kind of every QuadratureRule the library builds while the test runs."""
    built = []

    class CountingRule(linalg.QuadratureRule):
        def __post_init__(self):
            built.append(self.kind)
            super().__post_init__()

    monkeypatch.setattr(linalg, "QuadratureRule", CountingRule)
    return built
