"""Plain-text result tables, and the one shape every row's result has.

A row function returns a :class:`Result`: what it measured, as values
by dotted name over the axes it swept, plus the row's :class:`Layout` —
its one declaration of derived values, golden metric names and text.
``render()`` (what the CLI prints; at each row's recorded scale, the
reproduction record below the marker in EXPERIMENTS.md) and
``metrics()`` (what the golden suite diffs) are both read off it.

Names are ``str.format`` templates over the axes:
``"{system}.rand.{phase}_us"`` spells one name per point of the
``system`` and ``phase`` axes, the result's first axis outermost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from string import Formatter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple,
)

Values = Dict[str, Any]
Coords = Dict[str, Any]
Axes = Dict[str, Tuple[Any, ...]]


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


# ---------------------------------------------------------------------------
# The one result shape
# ---------------------------------------------------------------------------


def _fields(template: str) -> List[str]:
    """The axis names ``template`` formats (``{op[0]}`` names ``op``)."""
    return [
        name.split("[")[0]
        for _, name, _, _ in Formatter().parse(template) if name
    ]


def _name(leaf: Any) -> str:
    return leaf if isinstance(leaf, str) else leaf[0]


def _spread(leaves: Iterable[Any], axes: Axes, fixed: Coords) -> Iterator[Tuple[Any, Coords]]:
    """Each leaf — a name template, or a pair led by one — at every point
    of the axes its name spells beyond ``fixed``.  Consecutive leaves
    whose first such axis (in axis order) is the same step through it
    together, one value at a time."""
    def outer(leaf: Any) -> Optional[str]:
        fields = _fields(_name(leaf))
        return next((a for a in axes if a not in fixed and a in fields), None)

    for axis, run in itertools.groupby(leaves, key=outer):
        if axis is None:
            for leaf in run:
                yield leaf, fixed
        else:
            members = list(run)
            for value in axes[axis]:
                yield from _spread(members, axes, {**fixed, axis: value})


def spell(template: str, axes: Axes) -> Iterator[Tuple[str, Coords]]:
    """Each name ``template`` spells over ``axes``, with its coordinates."""
    for _, coords in _spread([template], axes, {}):
        yield template.format(**coords), coords


def ratio(numerator: str, denominator: str) -> Callable[..., float]:
    """A derived value: the value ``numerator`` names over the one
    ``denominator`` names, both spelled at the derived name's coordinates."""
    return lambda result, **coords: (
        result[numerator.format(**coords)] / result[denominator.format(**coords)]
    )


def rounded(ndigits: int) -> Callable[[float], float]:
    """A cell format: the value rounded to ``ndigits`` decimals."""
    return lambda value: round(value, ndigits)


def label(template: str) -> Callable[["Result", Coords], str]:
    """A table cell showing ``template`` spelled at its row: an axis label."""
    return lambda result, coords: template.format(**coords)


@dataclass(frozen=True)
class Table:
    """A ``format_table`` section: a row per point of the ``rows`` axes,
    a column per ``header: cell`` of ``columns`` at each point of any
    further axis its header spells.  A cell is a value name, a ``(value
    name, fmt)`` pair, or ``cell(result, coords)`` such as a :func:`label`."""

    rows: Tuple[str, ...]
    columns: Mapping[str, Any]
    title: str = ""

    def __call__(self, result: "Result") -> str:
        columns = list(_spread(self.columns.items(), result.axes, {}))
        body = [
            [_show(result, cell, {**coords, **dict(zip(self.rows, point))})
             for (_, cell), coords in columns]
            for point in itertools.product(*(result.axes[a] for a in self.rows))
        ]
        table = format_table(
            [header.format(**coords) for (header, _), coords in columns], body
        )
        return f"-- {self.title} --\n{table}" if self.title else table


def _show(result: "Result", cell: Any, coords: Coords) -> object:
    if callable(cell):
        return cell(result, coords)
    name, fmt = (cell, None) if isinstance(cell, str) else cell
    value = result[name.format(**coords)]
    return value if fmt is None else fmt(value)


@dataclass(frozen=True)
class Layout:
    """A row's one declaration: what its result derives, pins and prints.

    * ``derived`` maps a name template to ``fn(result, **coords)``,
      computed in order at every name it spells; a name whose inputs this
      run did not produce (a ``KeyError`` or ``ZeroDivisionError``), or
      whose ``fn`` returns ``None``, has no value.
    * ``metrics`` are the golden names: name templates, or ``(name,
      value name)`` pairs — a value axis the name omits sits at its first
      value.  A name this run has no value for is left out.
    * ``sections`` are joined by ``sep``: a :class:`Table`, a fixed line,
      or ``fn(result)`` returning text (``None`` for none).
    """

    sections: Tuple[Any, ...]
    metrics: Tuple[Any, ...] = ()
    derived: Mapping[str, Callable[..., Any]] = field(default_factory=dict)
    sep: str = "\n\n"

    def result(self, values: Values, **axes: Iterable[Any]) -> "Result":
        return Result(self, {axis: tuple(of) for axis, of in axes.items()}, values)


@dataclass
class Result:
    """A row's result: ``values`` by dotted name over the swept ``axes``
    (plus the derived ones), shaped by the row's ``layout``."""

    layout: Layout
    axes: Axes
    values: Values

    def __post_init__(self) -> None:
        for template, derive in self.layout.derived.items():
            for name, coords in spell(template, self.axes):
                try:
                    value = derive(self, **coords)
                except (KeyError, ZeroDivisionError):
                    continue  # an input this run did not produce
                if value is not None:
                    self.values[name] = value

    def __getitem__(self, name: str) -> Any:
        return self.values[name]

    def metrics(self) -> Dict[str, float]:
        """The golden metrics this run has values for, in declared order."""
        first = {axis: of[0] for axis, of in self.axes.items() if of}
        metrics: Dict[str, float] = {}
        for leaf, coords in _spread(self.layout.metrics, self.axes, {}):
            name, value = (leaf, leaf) if isinstance(leaf, str) else leaf
            value = value.format(**{**first, **coords})
            if value in self.values:
                metrics[name.format(**coords)] = self.values[value]
        return metrics

    def render(self) -> str:
        """The row's text: its sections, joined by the layout's ``sep``."""
        texts = (
            section if isinstance(section, str) else section(self)
            for section in self.layout.sections
        )
        return self.layout.sep.join(text for text in texts if text is not None)


def named(cells: Mapping[Any, Any], axes: Sequence[str], template: str) -> Values:
    """Grid cells (keyed by coordinate over ``axes``, as
    :func:`~repro.exec.runner.grid` returns them) by dotted name:
    ``template`` spelled at the cell's coordinates, dotted with each key of
    a dict cell."""
    values: Values = {}
    for key, cell in cells.items():
        prefix = template.format(**dict(zip(axes, key if len(axes) > 1 else (key,))))
        if isinstance(cell, dict):
            values.update({f"{prefix}.{name}": value for name, value in cell.items()})
        else:
            values[prefix] = cell
    return values
