"""Golden-figure regression suite.

Each experiment of ``repro.core.registry.EXPERIMENTS`` runs at its
``mini``, a deliberately small scale, and its result reduces
itself (``result.metrics()``) to a flat dict of named *shape metrics* —
latencies, ratios, bandwidths, counters — that capture what the figure
shows.  The metrics are diffed against
``tests/golden/<fig>.json``; because every experiment is seeded and
simulated-time based, a drift beyond the (tiny) tolerance means the
model's behavior changed, not that the host got slower.

Beside ``metrics`` each file pins ``events``, the number of events the
engine popped during that same run, compared with ``==``: the run's
*work*, identical on every host and under every ``PYTHONHASHSEED``, and
the tree's only committed perf number (wall-clock is what ``python3 -m
bench`` reports, never a gate).  ``render`` is the sha256 of the printed
table, ``result.render()``, so a change to a header, a column or a
number's format fails here even when every metric holds.

Regenerate after an *intentional* behavior change with::

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py --regen-golden

and review the JSON diff like any other code change.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.core.registry import EXPERIMENTS
from tests.conftest import figure_run

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for metric comparison.  Runs are bit-deterministic
#: and JSON round-trips floats exactly, so this only needs to absorb
#: benign serialization noise — anything larger is real drift.
REL_TOL = 1e-9


@pytest.mark.parametrize("fig", sorted(EXPERIMENTS))
def test_golden_figure(fig: str, regen_golden: bool) -> None:
    result, events = figure_run(fig)
    metrics = result.metrics()
    render = hashlib.sha256(result.render().encode("utf-8")).hexdigest()
    path = GOLDEN_DIR / f"{fig}.json"
    if regen_golden:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"figure": fig, "events": events, "metrics": metrics,
                   "render": render}
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="ascii",
        )
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"missing golden file {path}; run pytest with --regen-golden"
    )
    pinned = json.loads(path.read_text(encoding="ascii"))
    golden = pinned["metrics"]
    assert sorted(metrics) == sorted(golden), (
        f"{fig}: metric names changed; regenerate goldens if intentional"
    )
    drifted = []
    for name in sorted(metrics):
        live, want = metrics[name], golden[name]
        if not math.isclose(live, want, rel_tol=REL_TOL, abs_tol=0.0):
            drifted.append(f"  {name}: golden {want!r} -> live {live!r}")
    assert not drifted, (
        f"{fig} drifted beyond rel_tol={REL_TOL} "
        f"({len(drifted)}/{len(metrics)} metrics):\n" + "\n".join(drifted)
    )
    assert events == pinned["events"], (
        f"{fig}: the run popped {events} engine events, golden pins "
        f"{pinned['events']}; regenerate goldens if intentional"
    )
    assert render == pinned["render"], (
        f"{fig}: the printed table changed (sha256 {render[:12]}, golden "
        f"pins {pinned['render'][:12]}); regenerate goldens if intentional"
    )
