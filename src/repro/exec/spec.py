"""Declarative sweeps: what the experiment loops actually iterate over.

A :class:`SweepPoint` names one independent experiment cell — a
module-level function plus the keyword arguments that fully determine
its result.  A :class:`SweepSpec` is an ordered tuple of points; order
is meaningful, because the runner assembles results in spec order no
matter how (or whether) the points were computed.

Points must be *self-contained*: the cell function builds every rig it
needs and returns plain data.  That is what makes them safe to ship to
a worker process and safe to cache — the function reference and the
arguments are the complete input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SweepPoint:
    """One independent experiment cell of a sweep.

    ``fn`` must be an importable module-level callable (workers resolve
    it by reference) and ``kwargs`` must contain only picklable,
    content-hashable values: primitives, tuples/lists/dicts of them,
    bytes, enums, and dataclasses (the config objects).
    """

    #: Stable identity within the spec, e.g. ``"kv/qd64/4096"``; used in
    #: progress/error reporting, not in the cache key.
    label: str
    #: The cell function; called as ``fn(**kwargs)``.  Deliberately not
    #: canonicalizable: point_key hashes fn by module.qualname identity,
    #: never through exec/cache.canonical.
    fn: Callable[..., Any]
    #: Complete inputs of the cell (hashed into the cache key).
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    #: Extra cache-key salt for seeded variants of otherwise-equal cells.
    seed: int = 0

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise ConfigurationError(
                f"sweep point {self.label!r}: fn must be callable, "
                f"got {type(self.fn).__name__}"
            )
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ConfigurationError(
                f"sweep point {self.label!r}: fn must be module-level "
                f"(picklable by reference), got {qualname!r}"
            )

    def __call__(self) -> Any:
        """Compute the cell in the current process."""
        return self.fn(**dict(self.kwargs))


@dataclass(frozen=True)
class SweepSpec:
    """An ordered collection of independent points forming one sweep."""

    name: str
    points: Tuple[SweepPoint, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.points, tuple):
            # Accept any iterable at construction for ergonomics.
            object.__setattr__(self, "points", tuple(self.points))
        labels = [point.label for point in self.points]
        if len(set(labels)) != len(labels):
            dupes = sorted({x for x in labels if labels.count(x) > 1})
            raise ConfigurationError(
                f"sweep {self.name!r} has duplicate point labels: {dupes}"
            )

    def __len__(self) -> int:
        return len(self.points)
