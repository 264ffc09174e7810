"""Plain-text result tables for the experiments.

Every ``*Result.render()`` and claims table prints the rows/series the
paper's figures show via these helpers; that text, at each row's recorded
scale, is the reproduction record below the marker in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Monospace table with right-aligned numeric-ish columns."""
    materialized: List[List[str]] = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialized:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(label: str, values: Sequence[float], precision: int = 1) -> str:
    """One labeled series on a single line (a figure's curve as text)."""
    rendered = ", ".join(f"{value:.{precision}f}" for value in values)
    return f"{label}: [{rendered}]"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline — a quick visual of a bandwidth time series."""
    if not values:
        return ""
    glyphs = "▁▂▃▄▅▆▇█"
    top = max(values)
    if top <= 0:
        return glyphs[0] * len(values)
    return "".join(
        glyphs[min(len(glyphs) - 1, int(value / top * (len(glyphs) - 1)))]
        for value in values
    )


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
