"""The two recorders of the traced pass, both outside the program.

Host time: ``cProfile`` around the timed phase, aggregated by
``repro.<package>`` into per-layer self time and call counts, plus a
layer-boundary edge table built from the profiler's caller links.

Simulated time: ``repro.trace.Tracer`` objects handed to the rigs through
their public ``tracer=`` argument, all feeding one in-memory collector
that is written out as a Perfetto file when the benchmark ends.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Callable, Dict, List, Tuple

from repro.metrics.attribution import LatencyBreakdown
from repro.sim.engine import set_pop_observer
from repro.trace.tracer import TraceCollector, TraceConfig, Tracer

from bench import BENCH_DIR, REPO_ROOT
from bench.catalog import LAYERS

_REPRO_DIR = str(REPO_ROOT / "src" / "repro") + os.sep
_BENCH_DIR = str(BENCH_DIR) + os.sep

#: ``repro.lint`` is only entered through ``exec``'s code-version salt
#: (its source walker), so it is booked there.  Top-level modules (units,
#: errors) land in ``core``.
_FOLDED = {"lint": "exec"}


def layer_of(filename: str) -> str:
    """Layer a profiled function belongs to, from its file path."""
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        package = _FOLDED.get(package, package)
        return package if package in LAYERS else "core"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    # Built-ins ("~"), the standard library, frozen importlib, site-packages.
    return "stdlib"


class LayerProfile:
    """One ``cProfile`` run reduced to layers."""

    def __init__(self, profile: cProfile.Profile) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: (caller layer, callee layer) -> [calls, inclusive seconds].
        self.edges: Dict[Tuple[str, str], List[float]] = {}
        for func, (_cc, ncalls, tottime, _ct, callers) in (
            pstats.Stats(profile).stats.items()
        ):
            callee = layer_of(func[0])
            self.self_s[callee] = self.self_s.get(callee, 0.0) + tottime
            self.calls[callee] = self.calls.get(callee, 0) + ncalls
            for caller_func, (_c, edge_calls, _tt, edge_ct) in callers.items():
                caller = layer_of(caller_func[0])
                if caller == callee:
                    continue
                edge = self.edges.setdefault((caller, callee), [0, 0.0])
                edge[0] += edge_calls
                edge[1] += edge_ct

    def total_s(self) -> float:
        return sum(self.self_s.values())

    def edge_rows(self) -> List[dict]:
        return [
            {"caller": caller, "callee": callee, "calls": int(calls),
             "inclusive_s": seconds}
            for (caller, callee), (calls, seconds) in sorted(
                self.edges.items(), key=lambda item: -item[1][1]
            )
        ]


def profiled(call: Callable[[], None]) -> cProfile.Profile:
    """Run ``call`` under cProfile; reduce it with :class:`LayerProfile`
    once the clock has stopped."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        call()
    finally:
        profile.disable()
    return profile


def counting_events(call: Callable[[], None]) -> int:
    """Run ``call`` counting every engine event popped, in any environment."""
    popped = 0

    def observe(_now: float, _event: object) -> None:
        nonlocal popped
        popped += 1

    set_pop_observer(observe)
    try:
        call()
    finally:
        set_pop_observer(None)
    return popped


class SpanSink:
    """Hands out tracers that all record into one in-memory collector."""

    #: ``phase`` children duplicate the components every ``op`` root
    #: already carries, and ``nvme`` adds two records per command; both
    #: are left out so a whole phase fits the ring.
    CATEGORIES = ("op", "flash", "gc", "flush", "host", "recovery")
    MAX_SPANS = 1 << 19

    def __init__(self) -> None:
        self.collector = TraceCollector(self.MAX_SPANS)
        self.tracers: Dict[str, Tracer] = {}
        self._since_us: Dict[str, float] = {}

    def tracer(self, label: str) -> Tracer:
        tracer = Tracer(
            TraceConfig(categories=self.CATEGORIES, max_spans=self.MAX_SPANS),
            self.collector,
            pid=len(self.tracers) + 1,
            process_name=label,
        )
        self.tracers[label] = tracer
        return tracer

    def mark(self, label: str, now_us: float) -> None:
        """Set-up traffic of ``label`` ended at simulated time ``now_us``;
        spans that started earlier stay out of the breakdown."""
        self._since_us[label] = now_us

    def breakdowns(self) -> Dict[str, dict]:
        """Per tracer and op type: count, mean latency, phase means.

        Also checks the subsystem's promise that the phases tile each
        operation: ``tile_error`` is |sum of phase means - mean| / mean.
        """
        records = self.collector.records()
        out: Dict[str, dict] = {}
        for label, tracer in self.tracers.items():
            breakdown = LatencyBreakdown.from_records(
                records, pid=tracer.pid, since_us=self._since_us.get(label)
            )
            for op in breakdown.op_types():
                mean = breakdown.mean_total_us(op)
                components = breakdown.mean_components_us(op)
                tiled = sum(components.values())
                out[f"{label}.{op}"] = {
                    "count": breakdown.count(op),
                    "mean_us": mean,
                    "p99_us": breakdown.p99_total_us(op),
                    "components_us": components,
                    "tile_error": abs(tiled - mean) / mean if mean else 0.0,
                }
        return out
