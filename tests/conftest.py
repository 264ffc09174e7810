"""Shared pytest configuration for the figure suites.

The smoke suite (`test_figures_smoke.py`) and the golden suite
(`test_golden_figures.py`) exercise the experiments of
:data:`repro.core.registry.EXPERIMENTS` at each row's ``mini`` scale;
:func:`figure_run` memoizes the run so both suites share one
execution per pytest session.
"""

from __future__ import annotations

import gc
import os
import sys
from collections import Counter
from functools import lru_cache
from typing import Any, Callable, Dict, Tuple

import pytest

import repro
from repro.core.registry import EXPERIMENTS
from repro.sim.engine import set_pop_observer


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
def figure_run(name: str) -> Tuple[Any, int]:
    """The memoized miniature run of one experiment: its result and the
    number of events the engine popped producing it."""
    experiment = EXPERIMENTS[name]
    events = 0

    def count(now: float, event: Any) -> None:
        nonlocal events
        events += 1

    set_pop_observer(count)
    try:
        result = experiment.fn(**experiment.mini)
    finally:
        set_pop_observer(None)
    return result, events


def call_ledger(run: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """``run()``'s result and the Python calls it made into ``repro/``, per
    top-level package (a module directly under ``repro/`` counts under its
    own name).  Counted with ``sys.setprofile``, so the numbers are the
    same on every machine; C builtins are not calls.  Garbage of earlier
    tests is collected first: a suspended generator finalised inside the
    window would run its ``finally`` on this ledger."""
    root = os.path.dirname(repro.__file__) + os.sep
    package_of: Dict[str, str] = {}
    calls: Counter = Counter()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event != "call":
            return
        filename = frame.f_code.co_filename
        package = package_of.get(filename)
        if package is None:
            inside = filename.startswith(root)
            head = filename[len(root):].split(os.sep)[0] if inside else ""
            package = package_of[filename] = head.removesuffix(".py")
        if package:
            calls[package] += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, dict(calls)


def figure_result(name: str) -> Any:
    """The result half of :func:`figure_run`."""
    return figure_run(name)[0]
