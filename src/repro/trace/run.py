"""Traced experiment runs: one workload, both personalities, one trace.

:func:`run_traced` replays a figure-shaped workload against a KV-SSD rig
(tracer pid 1) and a block-SSD rig (tracer pid 2) that share a single
:class:`~repro.trace.tracer.TraceCollector`, so the exported Perfetto
document shows the two firmware personalities as two processes on one
timeline and the attribution tables can be compared side by side.

A scenario mirrors the stress its paper figure isolates — occupancy for
Fig. 3, split values for Fig. 4, foreground GC for Fig. 6, long keys for
Fig. 8 — scaled down to tracing-friendly op counts, and is the
``scenario`` field of that figure's row in
:data:`repro.core.registry.EXPERIMENTS`.  It is *not* the figure
experiment itself (:mod:`repro.core.figures` owns those); it exists to
produce representative span trees quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.runner import RunResult, run_phase
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvftl.population import KeyScheme
from repro.metrics.attribution import LatencyBreakdown
from repro.trace.tracer import TraceCollector, TraceConfig, Tracer


@dataclass(frozen=True)
class TraceScenario:
    """A figure-shaped workload to run under tracing."""

    #: What the scenario stresses, shown by the CLI.
    focus: str
    value_bytes: int = 4096
    #: Fraction of device capacity primed before the measured phase.
    fill_fraction: float = 0.3
    #: A uniform stream of this op kind (``mixed``: half reads).
    op: str = "mixed"
    queue_depth: int = 8
    blocks_per_plane: int = 24
    key_digits: int = 12

    @property
    def scheme(self) -> KeyScheme:
        return KeyScheme(prefix=b"key-", digits=self.key_digits)


def scenarios() -> Dict[str, TraceScenario]:
    """Registry row name -> its scenario, for the rows that have one."""
    from repro.core.registry import EXPERIMENTS  # it imports this module

    return {
        name: row.scenario
        for name, row in sorted(EXPERIMENTS.items())
        if row.scenario is not None
    }


@dataclass
class TraceReport:
    """Everything one traced run produced."""

    fig: str
    scenario: TraceScenario
    collector: TraceCollector
    #: runs["kv-ssd"] / runs["block-ssd"] — the measured-phase results.
    runs: Dict[str, RunResult] = field(default_factory=dict)
    #: Per-personality latency attribution over the measured phase.
    breakdowns: Dict[str, LatencyBreakdown] = field(default_factory=dict)


#: The traced personalities, in tracer-pid order (pid 1, pid 2).
PERSONALITIES = ("kv-ssd", "block-ssd")
#: Measured ops per personality when ``run_traced`` is given none.
TRACE_OPS = 1500
#: Ring-buffer capacity of every traced run's collectors.
MAX_SPANS = 1 << 20


def _fill_pairs(rig: Any, scenario: TraceScenario, n_ops: int) -> int:
    """Pairs priming ``scenario.fill_fraction`` of ``rig``'s capacity."""
    capacity = rig.pair_capacity(
        scenario.scheme.key_bytes, scenario.value_bytes,
        reserve_blocks=rig.device.core.write_stream.width + 16,
    )
    return max(n_ops, int(capacity * scenario.fill_fraction))


def _trace_personality_cell(
    personality: str,
    fig: str,
    n_ops: int,
    population: int,
) -> Dict[str, object]:
    """Run ``fig``'s scenario on one personality under its own collector.

    Both personalities replay the identical spec over ``population`` keys
    (:func:`run_traced` sizes it once).  Returns plain picklable parts —
    the run result, the attribution breakdown, and the finished span
    records — which :func:`run_traced` merges into one shared-collector
    report in fixed personality order.
    """
    scenario = scenarios()[fig]
    config = TraceConfig(max_spans=MAX_SPANS)
    collector = TraceCollector(MAX_SPANS)
    scheme = scenario.scheme
    pid = PERSONALITIES.index(personality) + 1
    tracer = Tracer(config, collector, pid=pid, process_name=personality)
    device = personality.partition("-")[0]
    with build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(scenario.blocks_per_plane),
        tracer=tracer,
    ) as rig:
        adapter = rig.adapter_for(scenario.value_bytes)
        spec = WorkloadSpec(
            n_ops=n_ops,
            op=scenario.op,
            pattern=Pattern.UNIFORM,
            population=population,
            key_scheme=scheme,
            value_bytes=scenario.value_bytes,
            seed=47,
        )
        if scenario.fill_fraction > 0.0:
            if rig.pair_capacity(scheme.key_bytes, scenario.value_bytes):
                rig.prime(
                    _fill_pairs(rig, scenario, n_ops), scenario.value_bytes, scheme
                )
            else:
                # A blob that must split cannot bulk-prime: fill the population
                # through timed stores first, as fig4's own cell does.
                fill = replace(
                    spec, n_ops=population, op="insert",
                    pattern=Pattern.SEQUENTIAL,
                )
                run_phase(
                    rig, f"trace.{fig}.{device}.fill", fill,
                    scenario.queue_depth, adapter,
                )
        run = run_phase(
            rig, f"trace.{fig}.{device}", spec, scenario.queue_depth,
            adapter, drain=False, stop_after_us=60e6,
        )
        breakdown = LatencyBreakdown.from_records(
            collector.records(), pid=pid,
            since_us=run.started_us, name=personality,
        )
        return {
            "run": run,
            "breakdown": breakdown,
            "records": collector.records(),
            "dropped": collector.dropped,
            "process_names": dict(collector.process_names),
        }


def run_traced(
    fig: str = "fig6",
    n_ops: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> TraceReport:
    """Run ``fig``'s scenario on both personalities into one collector.

    The personalities are independent cells (each simulates on its own
    environment); ``runner`` may compute them in parallel or reuse
    cached cells.  Records are merged kv-first then block — the same
    append order the serial shared collector produced — so the exported
    trace and the drop accounting are byte-identical either way.
    """
    scenario = scenarios().get(fig)
    if scenario is None:
        raise ConfigurationError(
            f"no trace scenario for {fig!r}; choose from {list(scenarios())}"
        )
    n_ops = TRACE_OPS if n_ops is None else n_ops
    population = n_ops
    if scenario.fill_fraction > 0.0:
        with build_rig("kvssd", lab_geometry(scenario.blocks_per_plane)) as probe:
            population = _fill_pairs(probe, scenario, n_ops)
    cells = grid(
        f"trace.{fig}",
        _trace_personality_cell,
        {"personality": PERSONALITIES},
        dict(fig=fig, n_ops=n_ops, population=population),
        runner,
    )

    collector = TraceCollector(MAX_SPANS)
    report = TraceReport(fig, scenario, collector)
    for personality, cell in cells.items():
        # Worker-side drops happened against an emptier buffer than the
        # shared one; re-appending here reproduces the shared-collector
        # retention exactly, and the counters sum to the serial total.
        collector.dropped += cell["dropped"]
        for record in cell["records"]:
            collector.append(record)
        collector.process_names.update(cell["process_names"])
        report.runs[personality] = cell["run"]
        report.breakdowns[personality] = cell["breakdown"]
    return report
