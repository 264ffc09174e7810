"""Golden-figure regression suite.

Each experiment of ``repro.core.registry.EXPERIMENTS`` runs once at its
recorded scale (the memo of ``tests/conftest.py``, shared with the
claims and smoke suites), and ``tests/golden/<fig>.json`` pins that run
whole: ``values``, every value of ``result.values``, and ``events``, the
number of events the engine popped producing it, both compared with
``==``.  Every experiment is seeded and simulated-time based and JSON
round-trips floats exactly, so any difference means the model's
behaviour changed, not that the host got slower.  ``events`` is the
run's *work*, identical on every host and under every
``PYTHONHASHSEED``, and the tree's only committed perf number
(wall-clock is what ``python3 -m bench`` reports, never a gate).  The
printed text is pinned byte for byte by EXPERIMENTS.md
(``tests/test_paper_claims.py``).

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --regen-golden

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.registry import EXPERIMENTS
from tests.conftest import figure_run

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize("fig", sorted(EXPERIMENTS))
def test_golden_figure(fig: str, regen_golden: bool) -> None:
    result, events = figure_run(fig)
    live = {"figure": fig, "events": events, "values": result.values}
    path = GOLDEN_DIR / f"{fig}.json"
    if regen_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(live, indent=2, sort_keys=True) + "\n", encoding="ascii"
        )
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden file {path}; run pytest with --regen-golden"
    )
    pinned = json.loads(path.read_text(encoding="ascii"))
    assert sorted(pinned) == sorted(live), f"{fig}: golden fields changed"
    values, golden = result.values, pinned["values"]
    assert sorted(values) == sorted(golden), (
        f"{fig}: value names changed; regenerate goldens if intentional"
    )
    drifted = [f"  {name}: golden {golden[name]!r} -> live {values[name]!r}"
               for name in sorted(values) if values[name] != golden[name]]
    assert not drifted, (
        f"{fig} drifted ({len(drifted)}/{len(values)} values):\n"
        + "\n".join(drifted)
    )
    assert events == pinned["events"], (
        f"{fig}: the run popped {events} engine events, golden pins "
        f"{pinned['events']}; regenerate goldens if intentional"
    )
