"""``cluster_rebalance``: a 4-shard, R=2 cluster losing a shard mid-stream.

Three tenants (YCSB A, YCSB B, a churn stream) drive ``run_cluster``
through a ``SweepRunner`` with an on-disk ``ResultCache``; shard 1
degrades to read-only at mid-stream through the real fault path and the
router drains it.  The timed phase is the cold pass (plan + four shards
in sequence + cache stores); a warm pass follows, untimed for the
end-to-end metrics, and must be served entirely from the cache with the
same fingerprint.  No other workload touches ``exec``, ``cluster`` or
``faults``.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.cluster.router import build_plan
from repro.cluster.run import ClusterResult, run_cluster
from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec
from repro.core.experiment import lab_geometry
from repro.exec.cache import ResultCache, code_version_salt
from repro.exec.runner import SweepRunner
from repro.exec.spec import SweepSpec

from bench.catalog import FROZEN_OPS
from bench.workloads.common import (
    Laps,
    Outcome,
    Timers,
    device_layer_metrics,
    scratch_dir,
)

SHARDS = 4
REPLICATION = 2
DEGRADED_SHARD = 1
POPULATION = 2_000
QUEUE_DEPTH = 8


class LapRunner(SweepRunner):
    """A ``SweepRunner`` that takes a sweep one point at a time and marks
    a lap after each.  Key hashing, cache lookup, the shard itself and the
    cache store stay the runner's own; only their grouping changes (per
    shard instead of per sweep), and ``reports`` gets one entry per shard.
    """

    laps: Optional[Laps] = None

    def run(self, spec: SweepSpec) -> list:
        results = []
        for point in spec.points:
            results.extend(super().run(SweepSpec(spec.name, (point,))))
            if self.laps is not None:
                self.laps.mark()
        return results


@dataclass
class _State:
    spec: ClusterSpec
    cache_dir: Path
    runner: LapRunner
    cold: Optional[ClusterResult] = None
    warm: Optional[ClusterResult] = None
    cold_host_s: float = 0.0
    warm_host_s: float = 0.0


class ClusterRebalance:
    name = "cluster_rebalance"
    #: Operations per tenant per repetition at the reference run length.
    base_ops = FROZEN_OPS["cluster_rebalance"]["ops_per_tenant"]

    def __init__(self, seed: int, factor: float) -> None:
        self.seed = seed
        self.n_ops = max(200, round(self.base_ops * factor))

    def _spec(self, trace: bool) -> ClusterSpec:
        tenants = tuple(
            TenantSpec(
                name=name, workload=workload, n_ops=self.n_ops,
                population=POPULATION, seed=self.seed,
            )
            for name, workload in (("ta", "A"), ("tb", "B"), ("tc", "churn"))
        )
        return ClusterSpec(
            shards=SHARDS,
            replication=REPLICATION,
            tenants=tenants,
            degrade=(DegradeEvent(shard=DEGRADED_SHARD, at_op=3 * self.n_ops // 2),),
            seed=self.seed,
            queue_depth=QUEUE_DEPTH,
            trace=trace,
        )

    def setup(self, timers: Timers, sink=None) -> _State:
        # Shard cells build their own tracers and return only the span
        # count, so a sink can switch recording on but receives no spans.
        spec = self._spec(trace=sink is not None)
        with timers.time("exec.salt_host_s"):
            # Memoized per process: paid here once so that every
            # repetition's cold pass starts from the same state.
            code_version_salt()
        with timers.time("cluster.plan_host_s"):
            # The planner alone; run_cluster plans again inside the phase.
            build_plan(spec)
        cache_dir = scratch_dir("cluster-cache-")
        runner = LapRunner(workers=1, cache=ResultCache(cache_dir))
        return _State(spec=spec, cache_dir=cache_dir, runner=runner)

    def run(self, state: _State, laps: Laps) -> None:
        # One lap per shard (lookup, compute, store); the plan opens the first.
        state.runner.laps = laps
        started = time.perf_counter()
        state.cold = run_cluster(state.spec, runner=state.runner)
        state.cold_host_s = time.perf_counter() - started
        state.runner.laps = None

    def finish(self, state: _State) -> Outcome:
        try:
            started = time.perf_counter()
            state.warm = run_cluster(state.spec, runner=state.runner)
            state.warm_host_s = time.perf_counter() - started
        finally:
            shutil.rmtree(state.cache_dir, ignore_errors=True)
        cold, warm = state.cold, state.warm
        assert cold is not None and warm is not None
        reports = state.runner.reports
        cold_hits = sum(report.hits for report in reports[:SHARDS])
        warm_hit_rate = sum(report.hits for report in reports[SHARDS:]) / SHARDS
        errors: List[str] = []
        attempted = cold.routed_ops + cold.drain_ops
        accounted = cold.completed_ops + cold.failed_ops + cold.shed_ops
        if attempted != accounted:
            errors.append(
                f"routed+drain {attempted} != completed+failed+shed {accounted}"
            )
        if not cold.zero_lost_writes:
            errors.append(
                f"lost writes: {cold.failed_ops} failed ops, "
                f"{cold.verify_missing} of {cold.verify_checked} keys missing"
            )
        if cold.degraded_shards != [DEGRADED_SHARD]:
            errors.append(f"degraded shards {cold.degraded_shards}")
        if cold_hits != 0:
            errors.append(f"cold pass hit the cache {cold_hits} times")
        if warm_hit_rate != 1.0:
            errors.append(f"warm pass hit rate {warm_hit_rate}")
        if warm.fingerprint() != cold.fingerprint():
            errors.append("warm pass fingerprint differs from the cold pass")
        rejected = sum(cold.rejected_inserts.values())
        not_found = sum(cold.router_not_found.values())

        stats = cold.device_stats()
        ops = cold.completed_ops
        all_latency = [s.latency["all"] for s in cold.shards if "all" in s.latency]
        slowest = max(all_latency, key=lambda summary: summary.p99)
        samples = sum(summary.count for summary in all_latency)
        rebalance_p99, _ = cold.tail("rebalance")
        sim: Dict[str, float] = {
            "sim_kops": cold.throughput_kops(),
            "sim_mean_us": max(summary.mean for summary in all_latency),
            "sim_p99_us": slowest.p99,
            "e2e.sim_p50_us": max(summary.p50 for summary in all_latency),
            "metrics.latency_samples": float(samples),
            "sim.sim_elapsed_s": cold.elapsed_us / 1e6,
            "cluster.router_share": cold.router_share(),
            "cluster.drain_ops": float(cold.drain_ops),
            "cluster.rebalance_p99_us": rebalance_p99,
            "cluster.verify_checked": float(cold.verify_checked),
            "exec.warm_hit_ratio": warm_hit_rate,
            "trace.spans_recorded": float(sum(s.trace_spans for s in cold.shards)),
        }
        sim.update(device_layer_metrics(
            stats, ops, stats.host_write_bytes,
            lab_geometry(state.spec.blocks_per_plane).page_bytes,
        ))
        return Outcome(
            ops=ops,
            attempted=attempted + rejected + not_found,
            failed=cold.failed_ops + cold.shed_ops + rejected + not_found,
            sim=sim,
            host={
                "exec.cold_host_s": state.cold_host_s,
                "exec.warm_host_s": state.warm_host_s,
            },
            errors=errors,
        )
