"""Span-based tracing clocked by the simulation environment.

The tracer answers the question the aggregate counters cannot: *where did
this operation's microseconds go, and what was the device doing at the
time?*  It produces two kinds of records, both cheap enough to leave
compiled into the hot paths:

* **Operation span trees** — the host API opens a root :class:`Span` per
  command (store/retrieve/write/read/...), and the device code marks
  every switch of mechanism with :meth:`Span.enter` naming an attribution
  bucket (``nvme``, ``controller``, ``index``, ``buffer``, ``flash``).
  Because the engine is cooperative, the elapsed simulation time between
  two marks is exactly the time that operation spent in that mechanism —
  including queueing — so the buckets sum to the measured operation
  latency by construction.
* **Device-timeline spans** — flash read/program/erase service intervals
  on per-die and per-channel tracks, GC collections and allowance stalls,
  flush-worker programs, and host-side LSM flush/compaction windows.
  These render as the device timeline in Perfetto.

Tracing is pay-for-what-you-enable: every record belongs to a category,
categories can be disabled individually, and a disabled or unbound
tracer reduces every instrumentation site to a guard check against
:data:`NULL_SPAN`.  Finished records land in a bounded ring buffer
(:class:`TraceCollector`) shared by any number of tracers, one per
device, distinguished by ``pid`` in the export.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Every category a record may carry.  ``op`` roots and their ``phase``
#: children feed latency attribution; the rest are device-timeline tracks.
CATEGORIES = ("op", "phase", "nvme", "flash", "gc", "flush", "host", "recovery")

#: Attribution buckets an operation's phases may charge time to.
#: ``recovery`` covers media-error handling (read retries and their
#: backoff) so faulted operations still tile into the attribution sum.
BUCKETS = ("nvme", "controller", "index", "buffer", "flash", "host", "recovery")


@dataclass(frozen=True)
class TraceConfig:
    """What to record and how much of it to keep."""

    #: Master switch; a disabled tracer records nothing.
    enabled: bool = True
    #: Categories to record (see :data:`CATEGORIES`).
    categories: Tuple[str, ...] = CATEGORIES
    #: Ring-buffer capacity; the oldest records are dropped beyond it.
    max_spans: int = 262_144

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ConfigurationError(
                f"max_spans must be >= 1, got {self.max_spans}"
            )
        unknown = set(self.categories) - set(CATEGORIES)
        if unknown:
            raise ConfigurationError(
                f"unknown trace categories {sorted(unknown)}; "
                f"expected a subset of {CATEGORIES}"
            )


class SpanRecord:
    """One finished span: a (ts, dur) interval on a named track."""

    __slots__ = ("pid", "track", "name", "cat", "ts", "dur", "args")

    def __init__(
        self,
        pid: int,
        track: str,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.pid = pid
        self.track = track
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.args = args

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanRecord(pid={self.pid}, track={self.track!r}, "
            f"name={self.name!r}, cat={self.cat!r}, ts={self.ts}, "
            f"dur={self.dur})"
        )


class TraceCollector:
    """Bounded ring buffer of finished :class:`SpanRecord` items.

    A collector may be shared by several tracers (one per device); the
    exporters read records and per-``pid`` process names from here.
    """

    def __init__(self, max_spans: int = 262_144) -> None:
        if max_spans < 1:
            raise ConfigurationError(f"max_spans must be >= 1, got {max_spans}")
        self.max_spans = max_spans
        self._spans: Deque[SpanRecord] = deque(maxlen=max_spans)
        #: Records discarded after the ring filled (oldest-first policy).
        self.dropped = 0
        #: pid -> process name, registered by each attached tracer.
        self.process_names: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def append(self, record: SpanRecord) -> None:
        """Add a finished record, dropping the oldest when full."""
        if len(self._spans) == self.max_spans:
            self.dropped += 1
        self._spans.append(record)

    def records(self) -> List[SpanRecord]:
        """Snapshot of the retained records, oldest first."""
        return list(self._spans)

    def clear(self) -> None:
        """Discard all retained records (the drop counter survives)."""
        self._spans.clear()


class _NullSpan:
    """Inert span: the zero-overhead stand-in when tracing is off."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def enter(self, bucket: Optional[str]) -> None:
        return None

    def finish(self, **args: Any) -> None:
        return None


#: Shared inert span; instrumentation accepts it anywhere a span goes.
NULL_SPAN = _NullSpan()


class Span:
    """An open operation root; finished via :meth:`finish`.

    Time is attributed through :meth:`enter` marks; the component totals
    ride in the finished record's ``args`` so aggregators need no tree
    reconstruction.
    """

    __slots__ = (
        "_tracer", "op", "track", "start_us", "components", "_bucket", "_since",
    )

    def __init__(self, tracer: "Tracer", op: str, track: str) -> None:
        self._tracer = tracer
        self.op = op
        self.track = track
        self.start_us = tracer.now()
        self.components: Dict[str, float] = {}
        self._bucket: Optional[str] = None
        self._since = 0.0

    def __bool__(self) -> bool:
        return True

    def enter(self, bucket: Optional[str]) -> None:
        """From now on this op's sim time is charged to ``bucket``.

        Closes the bucket that was open (emitting its ``phase`` record);
        ``None`` opens nothing.  An operation is in one mechanism at a
        time, so a mark per switch is the whole protocol.
        """
        tracer = self._tracer
        now = tracer.now()
        closing = self._bucket
        if closing is not None:
            duration = now - self._since
            components = self.components
            components[closing] = components.get(closing, 0.0) + duration
            if tracer._on_phase:
                tracer.collector.append(
                    SpanRecord(
                        tracer.pid, self.track, closing, "phase",
                        self._since, duration,
                    )
                )
        self._bucket = bucket
        self._since = now

    def finish(self, **args: Any) -> None:
        """Close the open bucket and the span, and emit the op record."""
        self.enter(None)
        tracer = self._tracer
        end = tracer.now()
        payload: Dict[str, Any] = {"components": dict(self.components)}
        if args:
            payload.update(args)
        tracer.collector.append(
            SpanRecord(
                tracer.pid, self.track, self.op, "op",
                self.start_us, end - self.start_us, payload,
            )
        )
        tracer._release_lane(self.track)


class Tracer:
    """Per-device recording front end, clocked by ``env.now``.

    A tracer may be constructed before its environment exists (rig
    builders create environments internally); it stays inert until
    :meth:`bind` attaches a clock.  Construct with
    ``TraceConfig(enabled=False)`` — or just never bind — for a
    permanently silent tracer.
    """

    def __init__(
        self,
        config: Optional[TraceConfig] = None,
        collector: Optional[TraceCollector] = None,
        env: object = None,
        pid: int = 1,
        process_name: str = "device",
    ) -> None:
        self.config = config if config is not None else TraceConfig()
        self.collector = (
            collector
            if collector is not None
            else TraceCollector(self.config.max_spans)
        )
        self.pid = pid
        self.process_name = process_name
        self._env: object = None
        self._free_lanes: List[str] = []
        self._lane_count = 0
        self._on_op = False
        self._on_phase = False
        self._cats = frozenset(self.config.categories)
        # Categories that will actually record, i.e. empty until a clock
        # is bound and whenever the tracer is disabled.  wants() then
        # collapses to one frozenset probe on every hot-path guard.
        self._active: frozenset = frozenset()
        if env is not None:
            self.bind(env)

    # -- lifecycle -------------------------------------------------------

    def bind(self, env: object) -> "Tracer":
        """Attach the simulation clock; idempotent for the same env."""
        if self._env is not None and self._env is not env:
            raise ConfigurationError(
                "tracer is already bound to a different environment"
            )
        self._env = env
        self._active = self._cats if self.config.enabled else frozenset()
        self._on_op = self.wants("op")
        self._on_phase = self.wants("phase")
        self.collector.process_names.setdefault(self.pid, self.process_name)
        return self

    @property
    def enabled(self) -> bool:
        """Whether this tracer can record anything at all."""
        return self.config.enabled and self._env is not None

    def wants(self, cat: str) -> bool:
        """Whether records of category ``cat`` are being kept."""
        return cat in self._active

    def now(self) -> float:
        """Current simulation time (microseconds)."""
        return self._env.now  # type: ignore[attr-defined]

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer that never records, for default wiring."""
        return cls(config=TraceConfig(enabled=False))

    # -- operation span trees -------------------------------------------

    def op(self, name: str) -> Span:
        """Open an operation root span (or :data:`NULL_SPAN` when off).

        Roots are laid out on rotating ``op.N`` lanes so concurrent
        operations render as parallel tracks instead of bogus nesting.
        """
        if not self._on_op:
            return NULL_SPAN  # type: ignore[return-value]
        if self._free_lanes:
            track = self._free_lanes.pop()
        else:
            track = f"op.{self._lane_count}"
            self._lane_count += 1
        return Span(self, name, track)

    def _release_lane(self, track: str) -> None:
        self._free_lanes.append(track)

    # -- device-timeline records ----------------------------------------

    def complete(
        self,
        track: str,
        name: str,
        cat: str,
        duration_us: float,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span of known duration ending *now* on ``track``."""
        self.collector.append(
            SpanRecord(
                self.pid, track, name, cat,
                self.now() - duration_us, duration_us, args,
            )
        )

    def instant(
        self,
        track: str,
        name: str,
        cat: str,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a zero-duration marker at the current time."""
        self.collector.append(
            SpanRecord(self.pid, track, name, cat, self.now(), 0.0, args)
        )
