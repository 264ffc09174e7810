"""The paper-vs-measured record: checked, and the only writer of it.

Every row of ``repro.core.registry.EXPERIMENTS`` runs once at its
recorded scale — ``fn()`` with no arguments, exactly what
``repro <row>`` runs with no flags, memoized in ``tests/conftest.py``
for the golden and smoke suites too.  Every claim must hold, and
``render()`` plus the claims table must equal the row's fenced block
below the marker line of EXPERIMENTS.md.  Nothing below the marker is
typed by hand: regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_paper_claims.py --regen-golden

and review the EXPERIMENTS.md diff like any other code change.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import replace
from inspect import signature
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core import figures
from repro.core.registry import EXPERIMENTS, Claim
from repro.kvbench.report import Layout
from repro.kvbench.workload import generate_operations
from tests.conftest import figure_result

RECORD = Path(__file__).parent.parent / "EXPERIMENTS.md"
MARKER = "<!-- generated: tests/test_paper_claims.py --regen-golden -->\n"
_BLOCK = re.compile(r"^## (\S+)\n\n```text\n(.*?)\n```\n", re.M | re.S)


def test_every_row_states_its_findings_as_claims() -> None:
    """A claim is the one gate a finding has: no row prints without a
    claims table, and none rests on a single check."""
    assert {name: len(row.claims) for name, row in EXPERIMENTS.items()
            if len(row.claims) < 2} == {}


def test_no_finding_is_claimed_by_two_rows() -> None:
    """A finding is earned by the one row that measures it; a second row
    claiming it would be a second scale for the same number."""
    rows_of = {}
    for name, row in EXPERIMENTS.items():
        for claim in row.claims:
            rows_of.setdefault(claim.finding, set()).add(name)
    assert {finding: rows for finding, rows in rows_of.items() if len(rows) > 1} == {}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_claims_hold_at_the_recorded_scale(name: str, ledger) -> None:
    row = EXPERIMENTS[name]
    result = figure_result(name)
    table, held = row.claims_table(result)
    live = f"{result.render()}\n\n{table}"
    header, _, generated = RECORD.read_text(encoding="utf-8").partition(MARKER)
    blocks = dict(_BLOCK.findall(generated))
    if ledger.regen:
        blocks[name] = live
        RECORD.write_text(
            header + MARKER + "".join(
                f"\n## {kept}\n\n```text\n{blocks[kept]}\n```\n"
                for kept in EXPERIMENTS if kept in blocks
            ),
            encoding="utf-8",
        )
        pytest.skip(f"regenerated the {name} block of {RECORD.name}")
    assert held, f"{name}: a claim misses at the recorded scale\n{table}"
    assert blocks.get(name) == live, (
        f"{name}: EXPERIMENTS.md is stale; rerun with --regen-golden "
        f"if the change is intentional\n{live}"
    )


def test_claim_band_is_validated_and_a_non_finite_measure_is_a_miss() -> None:
    with pytest.raises(ValueError, match="empty band"):
        Claim("backwards", "-", "x", lo=2.0, hi=1.0)
    row = replace(EXPERIMENTS["fig7"], claims=(
        Claim("nan", "-", "nan"),
        Claim("inf", "-", "inf", lo=0.0),
        Claim("absent", "-", "absent"),
        Claim("fine", "-", "fine", 1.0, 1.0),
    ))
    result = Layout(sections=()).result({"nan": math.nan, "inf": math.inf, "fine": 1})
    table, held = row.claims_table(result)
    assert not held
    verdicts = [line.split()[-1] for line in table.splitlines()[2:]]
    assert verdicts == ["NO", "NO", "NO", "yes"]


def test_one_result_shape_and_every_claim_names_a_value() -> None:
    """A row's render is read off its declared layout: no module that
    defines a row function hand-writes a render (or a metrics reduction),
    and a claim measures a value by name, never by reaching into a
    result."""
    modules = {sys.modules[row.fn.__module__] for row in EXPERIMENTS.values()}
    assert len(modules) == 5
    hand_written = [
        module.__name__ for module in modules
        if re.search(r"def (render|metrics)\b", Path(module.__file__).read_text())
    ]
    assert hand_written == []
    measures = [claim.measure for row in EXPERIMENTS.values() for claim in row.claims]
    assert measures and all(isinstance(measure, str) for measure in measures)


def test_fig8_cells_store_keys_of_exactly_their_key_size(monkeypatch) -> None:
    """At the recorded scale the 4 B cell has more inserts than "k" + 3
    digits can name; every cell's scheme must still name all of its
    inserts at exactly the cell's key size.  The cells are built at the
    recorded run's keywords and stop before their phase runs: the memo
    already holds what the phases measure."""
    key_lengths = {}

    def spy(rig, name, spec, *args, **kwargs):
        key_lengths[name] = {len(op.key) for op in generate_operations(spec)}
        return SimpleNamespace(bandwidth=SimpleNamespace(
            overall_mib_per_sec=lambda: 0.0))

    monkeypatch.setattr(figures, "run_phase", spy)
    recorded = signature(figures.fig8_key_size_bandwidth).parameters
    result = figure_result("fig8")
    for size in result.axes["key_bytes"]:
        for mode in result.axes["mode"]:
            figures._fig8_cell(size, mode, recorded["n_ops"].default,
                               recorded["blocks_per_plane"].default)
    assert key_lengths == {
        f"fig8.{mode}.k{size}": {size}
        for size in result.axes["key_bytes"] for mode in ("sync", "async")
    }
