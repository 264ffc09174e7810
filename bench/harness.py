"""Run one workload: repetitions, lap timing, exactness checks, output.

``run`` does set-up and the timed phase ``REPETITIONS`` times, each on a
freshly built and prefilled rig with tracing off.  Every phase is cut into
laps at fixed points of its deterministic work (every ``LAP_OPS``
operations, each section, rate or shard).  Interference on this kind of
host only ever adds time and comes in bursts shorter than a phase, so the
phase's host time is taken lap by lap, each from the repetition that ran
that lap fastest; every repetition must reproduce the first one's
simulated metrics and counts bit for bit, otherwise the run fails (a free
check for state leaking between rigs).

``trace`` repeats one repetition of the identical input three ways:
untraced (the reference), under ``cProfile`` (host time per layer), and
with the program's own span tracer plus an event counter attached
(simulated time per phase).  End-to-end numbers never come from it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.trace.export import write_chrome_trace

from bench import tracing
from bench.catalog import (
    END_TO_END,
    LAYERS,
    REFERENCE_SECONDS,
    REPETITIONS,
    TIMER_RATES,
    per_layer,
)
from bench.workloads import WORKLOADS
from bench.workloads.common import OUT_DIR, Laps, Outcome, Timers

#: Tolerance of the "phases tile the operation" and "spans reproduce the
#: runner's latency" checks of the traced pass.
TILE_TOLERANCE = 0.01

NOTE = "simulated metrics are unvalidated against hardware; shape-checked only"


#: What ``yardstick_s`` reads on the builder's host when it is quiet.
YARDSTICK_QUIET_S = 0.0090
#: Readings per call of ``yardstick_s``: 0.1-0.15 s between repetitions.
YARDSTICK_READINGS = 12

_yardstick_table: Dict[bytes, List[int]] = {}


def _toy_simulation(steps: int = 1_200, clients: int = 8) -> None:
    """The program's kind of work in fifteen lines, none of them the
    program's: a heap of timed events resuming generators that look byte
    keys up in a dict and update small lists.  About 10 ms."""
    table = _yardstick_table
    if not table:
        table.update((b"key%012d" % index, [index, 0]) for index in range(60_000))
    names = list(table)
    rng = random.Random(7)

    def client():
        for _ in range(steps):
            entry = table[names[rng.randrange(len(names))]]
            entry[1] = entry[0] & 7
            yield 10.0 + entry[1]

    heap = [(0.0, number, client()) for number in range(clients)]
    pushed = clients
    while heap:
        now, _, process = heapq.heappop(heap)
        delay = next(process, None)
        if delay is not None:
            heapq.heappush(heap, (now + delay, pushed, process))
            pushed += 1


def yardstick_s() -> float:
    """The host's speed right now: the fastest of several readings of a
    fixed toy simulation.

    Laps deal with a host's slow moments.  It also has slow minutes, when
    everything (imports and arithmetic included) runs 15-35 % slower for
    as long as a neighbour keeps the machine busy, and no repetition
    inside a run finds a quiet lap then.  So a run reads this yardstick
    between its repetitions and reports host time in units of it.  The
    readings are short for the same reason the laps are, and the toy
    shares no code with the program, so a change to the program cannot
    move it.  It follows the host only in part (a stretch that slowed
    ``cluster_rebalance`` by 20 % moved it by 5 %): it narrows the spread
    between runs by a quarter to a half, it does not remove it.
    """
    best = float("inf")
    for _ in range(YARDSTICK_READINGS):
        started = time.perf_counter()
        _toy_simulation()
        best = min(best, time.perf_counter() - started)
    return best


def exact_view(outcome: Outcome) -> Dict[str, float]:
    """What must repeat exactly: simulated values and counts.

    ``trace.*`` entries describe the recorder, not the model, and differ
    between traced and untraced passes by design.
    """
    view = {
        name: value for name, value in outcome.sim.items()
        if not name.startswith("trace.")
    }
    view.update(ops=outcome.ops, attempted=outcome.attempted, failed=outcome.failed)
    if outcome.events is not None:
        view["events"] = outcome.events
    return view


def sim_digest(outcome: Outcome) -> str:
    """sha256 over the exact view, for comparing two runs at a glance."""
    payload = json.dumps(
        {name: repr(value) for name, value in exact_view(outcome).items()},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def drift(reference: Outcome, other: Outcome) -> List[str]:
    """Names whose exact values differ between two passes."""
    a, b = exact_view(reference), exact_view(other)
    return sorted(
        name for name in a.keys() | b.keys() if a.get(name) != b.get(name)
    )


#: A caller-supplied counter read just before and just after the timed
#: phase (``selfcheck`` counts calls of an injected wrapper with it).
Probe = Optional[Callable[[], float]]


@dataclass
class Repetition:
    setup_s: float
    #: Host seconds of each lap of the timed phase, in order.
    laps_s: List[float]
    outcome: Outcome
    timers: Timers
    #: How far the probe advanced inside the timed phase.
    probed: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.laps_s)


def quiet_wall_s(laps_s: List[List[float]]) -> float:
    """Host seconds of one timed phase on a host with no neighbours: each
    lap from the repetition that ran it fastest, summed."""
    return sum(min(lap) for lap in zip(*laps_s))


def repetition(
    workload, sink=None,
    wrap: Optional[Callable[[Callable[[], None]], object]] = None,
    probe: Probe = None,
) -> Tuple[Repetition, object]:
    """Set up a fresh rig, run the timed phase (inside ``wrap`` if given),
    reduce.  Returns the repetition and whatever ``wrap`` returned."""
    gc.collect()
    timers = Timers()
    laps = Laps()
    started = time.perf_counter()
    state = workload.setup(timers, sink)
    before = probe() if probe else 0.0
    laps.mark()
    wrapped = None
    if wrap is None:
        workload.run(state, laps)
    else:
        wrapped = wrap(lambda: workload.run(state, laps))
    laps.mark()
    probed = probe() - before if probe else 0.0
    outcome = workload.finish(state)
    return (
        Repetition(
            laps.marks[0] - started, laps.segments(), outcome, timers, probed
        ),
        wrapped,
    )


@dataclass
class Report:
    """Everything one invocation measured; ``result_line`` is the contract."""

    workload: str
    mode: str
    seed: int
    seconds: float
    scale: float
    metrics: Dict[str, Dict[str, object]]
    correct: bool
    attempted: int
    failed: int
    errors: List[str]
    sim_digest: str
    exact: Dict[str, float]
    calibration_s: float
    repetitions: List[Dict[str, float]] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    note: str = NOTE

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })

    def as_dict(self) -> dict:
        return {
            "workload": self.workload, "mode": self.mode, "seed": self.seed,
            "seconds": self.seconds, "scale": self.scale,
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed, "errors": self.errors,
            "metrics": self.metrics, "sim_digest": self.sim_digest,
            "exact": self.exact, "calibration_s": self.calibration_s,
            "repetitions": self.repetitions, "note": self.note, **self.extra,
        }


Configure = Optional[Callable[[object], None]]


def _workload(name: str, seed: int, seconds: float, scale: float, configure: Configure):
    """The workload with its op counts scaled to the requested run length."""
    workload = WORKLOADS[name](seed, seconds / REFERENCE_SECONDS * scale)
    if configure is not None:
        configure(workload)
    return workload


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    name: str, seed: int, seconds: float, scale: float, process_started: float,
    configure: Configure = None, probe: Probe = None,
) -> Report:
    """The untraced run: the end-to-end metrics."""
    # Process start to here: interpreter and imports, paid once per run.
    import_s = time.perf_counter() - process_started
    workload = _workload(name, seed, seconds, scale, configure)
    reps: List[Repetition] = []
    errors: List[str] = []
    yardstick = [yardstick_s()]
    for index in range(REPETITIONS[name]):
        rep, _ = repetition(workload, probe=probe)
        yardstick.append(yardstick_s())
        reps.append(rep)
        errors.extend(rep.outcome.errors)
        changed = drift(reps[0].outcome, rep.outcome)
        if changed:
            errors.append(
                f"repetition {index} differs from repetition 0 in "
                f"{', '.join(changed)}: state leaks between rigs"
            )
    first = reps[0].outcome
    if len({len(rep.laps_s) for rep in reps}) != 1:
        errors.append(
            f"repetitions cut the phase into {[len(rep.laps_s) for rep in reps]} laps"
        )
    quiet = quiet_wall_s([rep.laps_s for rep in reps])
    score = min(yardstick)
    # Seconds of the builder's quiet host per second of this host, now.
    quiet_host = YARDSTICK_QUIET_S / score
    stopwatch = {
        # Imports once, plus the median of the per-repetition set-ups
        # (inputs, rig build, prefill, warm-up).
        "setup_s": import_s + statistics.median(rep.setup_s for rep in reps),
        "host_ops_per_s": first.ops / quiet,
    }
    values = {
        "setup_s": stopwatch["setup_s"] * quiet_host,
        "host_ops_per_s": stopwatch["host_ops_per_s"] / quiet_host,
        "host_peak_rss_mib": _peak_rss_mib(),
        "sim_kops": first.sim["sim_kops"],
        "sim_mean_us": first.sim["sim_mean_us"],
        "sim_p99_us": first.sim["sim_p99_us"],
    }
    if first.failed:
        errors.append(f"{first.failed} of {first.attempted} operations failed")
    return Report(
        workload=name, mode="run", seed=seed, seconds=seconds, scale=scale,
        metrics={
            metric: {"value": values[metric], "unit": unit}
            for metric, unit, _better, _bound, _kind in END_TO_END
        },
        correct=not errors,
        attempted=first.attempted,
        failed=first.failed,
        errors=errors,
        sim_digest=sim_digest(first),
        exact=exact_view(first),
        calibration_s=score,
        repetitions=[
            {"setup_s": rep.setup_s, "wall_s": rep.wall_s, "laps_s": rep.laps_s,
             "probed": rep.probed}
            for rep in reps
        ],
        extra={
            "import_s": import_s,
            "quiet_wall_s": quiet,
            # What a stopwatch read, before the yardstick was applied.
            "stopwatch": stopwatch,
            "samples": {
                "host_ops_per_s": (
                    f"{first.ops} ops in {len(reps[0].laps_s)} laps, "
                    f"each lap the fastest of {len(reps)} repetitions"
                ),
                "calibration_s": (
                    f"fastest of {YARDSTICK_READINGS * len(yardstick)} yardstick readings"
                ),
                "setup_s": f"median of {len(reps)} set-ups",
                "sim_latency": int(first.sim.get("metrics.latency_samples", 0)),
            },
            "host": first.host,
        },
    )


def trace(
    name: str, seed: int, seconds: float, scale: float,
    configure: Configure = None, write_files: bool = True, probe: Probe = None,
) -> Report:
    """The traced run: the per-layer metrics and the span files."""
    score = yardstick_s()
    workload = _workload(name, seed, seconds, scale, configure)
    errors: List[str] = []

    reference, _ = repetition(workload)
    profiled, profile = repetition(workload, wrap=tracing.profiled, probe=probe)
    layers = tracing.LayerProfile(profile)
    sink = tracing.SpanSink()
    spanned, popped = repetition(workload, sink=sink, wrap=tracing.counting_events)

    outcome = reference.outcome
    errors.extend(outcome.errors)
    for label, other in (("profiled", profiled), ("span-traced", spanned)):
        changed = drift(outcome, other.outcome)
        if changed:
            errors.append(
                f"the {label} pass does not reproduce the untraced pass in "
                f"{', '.join(changed)}"
            )
    if outcome.events is not None and outcome.events != popped:
        errors.append(
            f"event observer counted {popped}, Environment.processed_events "
            f"says {outcome.events}"
        )
    ops = outcome.ops
    events = popped

    breakdowns = sink.breakdowns()
    for key, entry in breakdowns.items():
        if entry["tile_error"] > TILE_TOLERANCE:
            errors.append(
                f"{key}: phase means miss the span latency by "
                f"{entry['tile_error']:.2%}"
            )
    own = {k: v for k, v in breakdowns.items() if k.startswith(f"{name}.")}
    if own:
        # Single-rig workloads: the device's op spans are the client's
        # operations, so their mean must be the runner's mean latency.
        count = sum(entry["count"] for entry in own.values())
        span_mean = sum(e["count"] * e["mean_us"] for e in own.values()) / count
        runner_mean = outcome.sim["sim_mean_us"]
        if abs(span_mean - runner_mean) > TILE_TOLERANCE * runner_mean:
            errors.append(
                f"op spans average {span_mean:.3f} us, the runner measured "
                f"{runner_mean:.3f} us"
            )
    op_spans = sum(entry["count"] for entry in breakdowns.values())
    nvme_us = sum(
        entry["count"] * entry["components_us"].get("nvme", 0.0)
        for entry in breakdowns.values()
    )

    values: Dict[str, float] = {}
    for layer in LAYERS + ("bench",):
        values[f"{layer}.host_self_s"] = layers.self_s.get(layer, 0.0)
        values[f"{layer}.calls_per_op"] = layers.calls.get(layer, 0) / ops
    values.update(outcome.sim)
    values.update(outcome.host)
    values.update(reference.timers.seconds)
    for rate, timer in TIMER_RATES.items():
        seconds_spent = reference.timers.seconds.get(timer, 0.0)
        if seconds_spent > 0.0:
            values[rate] = reference.timers.counts[timer] / seconds_spent
    values.update({
        "sim.events_per_op": events / ops,
        "sim.host_us_per_event": reference.wall_s * 1e6 / events,
        "sim.host_events_per_s": events / reference.wall_s,
        "nvme.sim_us_per_op": nvme_us / op_spans if op_spans else 0.0,
        "trace.host_overhead_ratio": profiled.wall_s / reference.wall_s,
        "trace.spans_recorded": (
            len(sink.collector) + spanned.outcome.sim.get("trace.spans_recorded", 0.0)
        ),
        "trace.spans_dropped": float(sink.collector.dropped),
    })

    detail = {
        "workload": name, "seed": seed, "ops": ops, "events": events,
        "probed_in_profiled_pass": profiled.probed,
        "walls_s": {
            "untraced": reference.wall_s, "cprofile": profiled.wall_s,
            "spans_and_event_counter": spanned.wall_s,
        },
        "layers": {
            layer: {
                "host_self_s": layers.self_s[layer],
                "share": layers.self_s[layer] / layers.total_s(),
                "calls": layers.calls[layer],
            }
            for layer in sorted(layers.self_s, key=layers.self_s.get, reverse=True)
        },
        "edges": layers.edge_rows(),
        "setup_timers_s": reference.timers.seconds,
        "sim_phase_breakdown": breakdowns,
        "values": values,
        "note": NOTE,
    }
    if write_files:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(sink.collector, OUT_DIR / f"{name}.trace.json")
        with (OUT_DIR / f"{name}.layers.json").open("w", encoding="ascii") as handle:
            json.dump(detail, handle, indent=1, sort_keys=True)

    return Report(
        workload=name, mode="trace", seed=seed, seconds=seconds, scale=scale,
        metrics={
            # 0 means the workload bypasses the layer, or cannot see the
            # quantity from outside the program.
            metric: {"value": values.get(metric, 0.0), "unit": unit}
            for metric, unit, _better, _moves in per_layer()
        },
        correct=not errors,
        attempted=outcome.attempted,
        failed=outcome.failed,
        errors=errors,
        sim_digest=sim_digest(outcome),
        exact=exact_view(outcome),
        calibration_s=score,
        extra={"detail": detail},
    )
