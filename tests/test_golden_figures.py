"""Each experiment's recorded-scale run equals ``identity.rows.<fig>`` of
the ledger: every value, and ``events``, the engine events it popped.
Runs are seeded and in simulated time, so a difference is a behaviour
change, never a slower host."""

from __future__ import annotations

import pytest

from repro.core.registry import EXPERIMENTS
from tests.conftest import figure_run


@pytest.mark.parametrize("fig", sorted(EXPERIMENTS))
def test_golden_figure(fig: str, pin) -> None:
    run = figure_run(fig)
    pin(f"identity.rows.{fig}", {"events": run.events, "values": run.value.values})
