"""``frontend_rates``: the open-loop serving path at three fixed rates.

``run_frontend`` serves the fixed two-tenant scenario (a Poisson latency
tenant with a 2000 us deadline, a bursty MMPP bulk tenant) at 32 and 48
kops, both below the saturation knee on every seed, and at 768 kops, far
past it.  The arrival schedule is pure data generated before the run, so
the generator is never late (``frontend.generator_late_us`` is 0 by
construction), and latency is the frontend's own trail, timed from when
each request was due.

Why these rates: the bulk tenant's bursts run at 8x its baseline, so at
96 kops the instantaneous load crosses the device's ~125 kops capacity
and about a third of the seeds shed (two in ten still do at 64 kops, none
of forty at 48); and up to 384 kops the run is
backlogged only while a burst lasts, so completed/elapsed echoes the
arrival process (11 % spread across seeds at 384 kops).  At 768 kops the
admission queue stays full, goodput is the serving path's capacity
(``sim_kops``, 3 % spread), and about 63 % is shed by design;
that shed share is a layer metric and does not count against
attempted/failed, which cover the two rates a healthy system must serve
completely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.frontend.arrivals import generate_arrivals
from repro.frontend.frontend import PHASES, FrontendRunResult, run_frontend
from repro.frontend.run import LATENCY_CLASS, build_load_spec
from repro.frontend.spec import FrontendSpec

from bench.catalog import FROZEN_OPS
from bench.workloads.common import Laps, Outcome, Timers

#: name -> offered load (ops/s).  ``r768`` is the overload probe.
RATES = {"r32": 32_000.0, "r48": 48_000.0, "r768": 768_000.0}
#: The rates a healthy frontend serves with nothing shed.
SERVED = ("r32", "r48")
#: The rate the end-to-end latency and throughput metrics are read at.
REPORT = "r48"
#: The rate whose goodput is the saturation throughput.
OVERLOAD = "r768"
POPULATION = 2_000
BLOCKS_PER_PLANE = 16
#: Most shed the SLO search tolerates at a rate it calls sustainable.
SLO_SHED_LIMIT = 0.01


@dataclass
class _State:
    specs: Dict[str, FrontendSpec]
    tracers: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, FrontendRunResult] = field(default_factory=dict)


class FrontendRates:
    name = "frontend_rates"
    #: Requests per rate per repetition at the reference run length.
    base_ops = FROZEN_OPS["frontend_rates"]["requests_per_rate"]

    def __init__(self, seed: int, factor: float) -> None:
        self.seed = seed
        self.n_requests = max(200, round(self.base_ops * factor))

    def setup(self, timers: Timers, sink=None) -> _State:
        specs = {
            name: build_load_spec(
                load, n_requests=self.n_requests, population=POPULATION,
                blocks_per_plane=BLOCKS_PER_PLANE, seed=self.seed,
            )
            for name, load in RATES.items()
        }
        with timers.time("frontend.arrivals_host_s"):
            # The generator's own cost, outside any timed phase;
            # run_frontend regenerates the identical schedule.
            for spec in specs.values():
                for tenant in spec.tenants:
                    for _ in generate_arrivals(tenant.arrivals):
                        pass
        tracers = {name: sink.tracer(name) for name in specs} if sink else {}
        return _State(specs=specs, tracers=tracers)

    def run(self, state: _State, laps: Laps) -> None:
        # run_frontend takes plain data and hands nothing back until it
        # is done, so the finest lap from outside is one rate.
        for index, (name, spec) in enumerate(state.specs.items()):
            if index:
                laps.mark()
            state.results[name] = run_frontend(
                spec, keep_requests=True, tracer=state.tracers.get(name)
            )

    def finish(self, state: _State) -> Outcome:
        sim: Dict[str, float] = {}
        errors: List[str] = []
        ops = attempted = failed = 0
        slo_max = 0.0
        for name, result in state.results.items():
            stats = result.per_class[LATENCY_CLASS.name]
            ops += result.completed
            accounted = result.completed + result.failed + result.shed
            if result.offered != accounted:
                errors.append(
                    f"{name}: offered {result.offered} != completed+failed+shed "
                    f"{accounted}"
                )
            errors.extend(_trail_errors(name, result))
            if name in SERVED:
                attempted += result.offered
                failed += result.failed + result.shed
            elif result.failed:
                errors.append(f"{name}: {result.failed} admitted requests failed")
            if stats.latency is None:
                errors.append(f"{name}: class {stats.name} completed nothing")
                continue
            sim[f"frontend.{name}.sim_p99_us"] = stats.latency.p99
            shed_ratio = result.shed / result.offered
            if (
                stats.latency.p99 <= LATENCY_CLASS.deadline_us
                and shed_ratio <= SLO_SHED_LIMIT
            ):
                slo_max = max(slo_max, RATES[name] / 1000.0)
            if name == OVERLOAD:
                sim["sim_kops"] = result.throughput_kops()
                sim[f"frontend.{name}.shed_ratio"] = shed_ratio
            if name == REPORT:
                sim.update({
                    "sim_mean_us": stats.latency.mean,
                    "sim_p99_us": stats.latency.p99,
                    "e2e.sim_p50_us": stats.latency.p50,
                    f"frontend.{name}.queue_p99_us": stats.queueing.p99,
                    f"frontend.{name}.mean_batch": result.mean_batch_size,
                    "sim.sim_elapsed_s": result.elapsed_us / 1e6,
                    "metrics.latency_samples": float(stats.latency.count),
                })
                for phase in PHASES:
                    sim[f"frontend.{name}.phase_{phase}_us"] = stats.phase_means[phase]
                tiled = sum(stats.phase_means.values())
                if abs(tiled - stats.latency.mean) > 0.01 * stats.latency.mean:
                    errors.append(
                        f"{name}: phase means sum to {tiled:.3f} us, measured "
                        f"mean latency is {stats.latency.mean:.3f} us"
                    )
        sim["e2e.sim_slo_max_kops"] = slo_max
        sim["frontend.generator_late_us"] = 0.0
        return Outcome(
            ops=ops, attempted=attempted, failed=failed, sim=sim, errors=errors,
        )


def _trail_errors(name: str, result: FrontendRunResult) -> List[str]:
    """Every served request's timestamp trail must be ordered."""
    assert result.requests is not None
    broken = 0
    for request in result.requests:
        if request.shed:
            continue
        if not (
            request.arrival_us <= request.admit_us <= request.batch_us
            <= request.submit_us <= request.complete_us
        ):
            broken += 1
    return [f"{name}: {broken} requests with an out-of-order trail"] if broken else []
