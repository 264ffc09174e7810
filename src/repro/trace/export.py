"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and text tables.

The JSON exporter emits the Trace Event Format that ``chrome://tracing``
and https://ui.perfetto.dev load directly: one complete event (``"ph":
"X"``) per duration span, instant events (``"ph": "i"``) for markers, and
metadata events naming each process (one per device/tracer ``pid``) and
thread (one per track — ``die3``, ``ch1``, ``gc``, ``op.0``, ...).
Simulation time is already microseconds, which is exactly the unit the
format's ``ts``/``dur`` expect, so timestamps pass through untouched.

The text exporter renders a :class:`~repro.metrics.attribution.LatencyBreakdown`
as a per-op-type attribution table whose component columns sum to the
measured mean latency (the acceptance check of the trace subsystem).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Tuple, Union

from repro.kvbench.report import format_table
from repro.metrics.attribution import LatencyBreakdown
from repro.trace.tracer import TraceCollector
from repro.units import float_sum


def chrome_trace_events(collector: TraceCollector) -> List[dict]:
    """Flatten a collector into Trace Event Format event dicts."""
    events: List[dict] = []
    tids: Dict[Tuple[int, str], int] = {}
    for pid, name in sorted(collector.process_names.items()):
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
    for record in collector.records():
        key = (record.pid, record.track)
        tid = tids.get(key)
        if tid is None:
            # First appearance fixes the thread id, deterministically.
            tid = tids[key] = len(tids) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": record.pid,
                "tid": tid, "args": {"name": record.track},
            })
        event = {
            "name": record.name,
            "cat": record.cat,
            "pid": record.pid,
            "tid": tid,
            "ts": record.ts,
        }
        if record.dur > 0.0:
            event["ph"] = "X"
            event["dur"] = record.dur
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant marker
        if record.args:
            event["args"] = record.args
        events.append(event)
    return events


def to_chrome_trace(collector: TraceCollector) -> dict:
    """The full Trace Event Format document (JSON-object flavor)."""
    return {
        "traceEvents": chrome_trace_events(collector),
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulation microseconds",
            "dropped_spans": collector.dropped,
        },
    }


def write_chrome_trace(
    collector: TraceCollector, path: Union[str, "os.PathLike[str]"]
) -> int:
    """Write the Perfetto-loadable JSON to ``path``; returns event count.

    Accepts any path-like value and creates missing parent directories,
    so ``repro trace --out results/run1/trace.json`` just works.
    """
    document = to_chrome_trace(collector)
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="ascii") as handle:
        json.dump(document, handle, separators=(",", ":"))
    return len(document["traceEvents"])


def format_breakdown(breakdown: LatencyBreakdown) -> str:
    """Per-op-type latency-attribution table.

    One row per op type: count, mean and tail latency, then the mean time
    in each attribution bucket plus their sum — which matches the mean
    column up to rounding, because the phases tile the operation.
    """
    buckets = breakdown.buckets()
    headers = ["op", "count", "mean us", "p99 us", "p999 us"]
    headers += [f"{bucket} us" for bucket in buckets] + ["sum us"]
    rows: List[List[object]] = []
    for op in breakdown.op_types():
        components = breakdown.mean_components_us(op)
        rows.append(
            [
                op,
                breakdown.count(op),
                round(breakdown.mean_total_us(op), 2),
                round(breakdown.p99_total_us(op), 2),
                round(breakdown.p999_total_us(op), 2),
            ]
            + [round(components.get(bucket, 0.0), 2) for bucket in buckets]
            + [round(float_sum(components.values()), 2)]
        )
    return format_table(headers, rows)
