"""Shared pytest configuration for the figure suites.

The smoke suite (`test_figures_smoke.py`) and the golden suite
(`test_golden_figures.py`) exercise the experiments of
:data:`repro.core.registry.EXPERIMENTS` at each row's ``mini`` scale;
:func:`figure_result` memoizes the run so both suites share one
execution per pytest session.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any

import pytest

from repro.core.registry import EXPERIMENTS


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from live runs instead of "
        "diffing against them",
    )


@pytest.fixture
def regen_golden(request: pytest.FixtureRequest) -> bool:
    return bool(request.config.getoption("--regen-golden"))


@lru_cache(maxsize=None)
def figure_result(name: str) -> Any:
    """The memoized result of one experiment's miniature run."""
    experiment = EXPERIMENTS[name]
    return experiment.fn(**experiment.mini)
