"""Cluster execution: fan shards out, assemble one deterministic result.

:func:`run_cluster` turns a :class:`~repro.cluster.spec.ClusterSpec`
into one sweep point per shard (the cell is
:func:`repro.cluster.shard.run_shard`, a pure function of ``(spec,
shard)``) and executes them through the sweep engine — serial inline,
process-pool parallel, and content-cached all produce the same
spec-order result list, so a cluster run inherits the engine's
byte-reproducibility guarantee wholesale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.router import ClusterPlan, build_plan
from repro.cluster.shard import ShardResult, run_shard
from repro.cluster.spec import ClusterSpec
from repro.exec.cache import canonical
from repro.exec.runner import SweepRunner, grid
from repro.ftl.core import DeviceStats
from repro.kvbench.runner import Throughput
from repro.units import float_sum


def aggregate_device_stats(stats: Sequence[DeviceStats]) -> DeviceStats:
    """Sum device telemetry across shards into one cluster-wide struct.

    Numeric fields add; list fields (per-event logs like GC victims)
    concatenate in shard order.  Mirrors the generic field walk of
    ``DeviceStats.snapshot``/``delta`` so new telemetry aggregates
    without edits here.
    """
    total = DeviceStats()
    for entry in stats:
        for spec_field in fields(DeviceStats):
            value = getattr(entry, spec_field.name)
            if isinstance(value, list):
                getattr(total, spec_field.name).extend(value)
            else:
                setattr(
                    total,
                    spec_field.name,
                    getattr(total, spec_field.name) + value,
                )
    return total


@dataclass
class ClusterResult(Throughput):
    """One cluster run: the plan's bookkeeping plus every shard's result."""

    spec: ClusterSpec
    shards: List[ShardResult]
    client_ops: int
    routed_ops: int
    drain_ops: int
    rejected_inserts: Dict[str, int]
    router_not_found: Dict[str, int]
    final_directory: Dict[str, Tuple[str, ...]]

    # -- cluster-wide roll-ups -------------------------------------------

    @property
    def completed_ops(self) -> int:
        return sum(shard.completed_ops for shard in self.shards)

    @property
    def failed_ops(self) -> int:
        return sum(shard.failed_ops for shard in self.shards)

    @property
    def shed_ops(self) -> int:
        return sum(shard.shed_ops for shard in self.shards)

    @property
    def verify_missing(self) -> int:
        return sum(shard.verify_missing for shard in self.shards)

    @property
    def verify_checked(self) -> int:
        return sum(shard.verify_checked for shard in self.shards)

    @property
    def degraded_shards(self) -> List[int]:
        return [shard.shard for shard in self.shards if shard.degraded]

    @property
    def elapsed_us(self) -> float:
        """Cluster makespan: the slowest shard bounds the run (and is the
        window ``throughput_kops()`` divides by)."""
        return max((shard.elapsed_us for shard in self.shards), default=0.0)

    @property
    def zero_lost_writes(self) -> bool:
        """No acknowledged operation failed and every obligation verified."""
        return self.failed_ops == 0 and self.verify_missing == 0

    def router_share(self) -> float:
        """Fraction of total operation time spent in the routing hop."""
        op_time = float_sum(shard.op_time_us_total for shard in self.shards)
        if op_time <= 0:
            return 0.0
        return float_sum(shard.router_us_total for shard in self.shards) / op_time

    def device_stats(self) -> DeviceStats:
        """Aggregated telemetry across every shard device."""
        return aggregate_device_stats(
            [
                shard.device_stats
                for shard in self.shards
                if shard.device_stats is not None
            ]
        )

    def tail(self, label: str) -> Tuple[float, float]:
        """Worst-shard (p99, p999) latency for one phase label."""
        p99 = p999 = 0.0
        for shard in self.shards:
            summary = shard.latency.get(label)
            if summary is None:
                continue
            p99 = max(p99, summary.p99)
            p999 = max(p999, summary.p999)
        return p99, p999

    def fingerprint(self) -> str:
        """Content hash of the shard results (byte-reproducibility probe).

        Serial, parallel, and cache-served runs of the same spec must
        produce the same fingerprint — the acceptance property the
        cluster tests pin.  Results are reduced through the cache's
        :func:`~repro.exec.cache.canonical` form rather than pickled
        directly: pickle memoizes shared objects, so otherwise a live
        in-process result and its pickle-round-tripped twin would hash
        apart despite being value-identical.
        """
        payload = json.dumps(
            canonical(self.shards), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()


def run_cluster(
    spec: ClusterSpec, runner: Optional[SweepRunner] = None
) -> ClusterResult:
    """Execute every shard of ``spec`` and assemble the cluster result.

    ``runner=None`` runs shards inline (serial, uncached); a
    :class:`~repro.exec.runner.SweepRunner` adds process-pool fan-out and
    the on-disk result cache.  Results are identical either way.
    """
    # Planned before the fan-out: inline cells hit the memo and forked
    # pool workers inherit it, so the run routes once, not once per shard.
    plan: ClusterPlan = build_plan(spec)
    shards: List[ShardResult] = list(grid(
        f"cluster.{spec.shards}x{spec.replication}",
        run_shard,
        {"shard": range(spec.shards)},
        {"spec": spec},
        runner,
        seed=spec.seed,
    ).values())
    return ClusterResult(
        spec=spec,
        shards=shards,
        client_ops=plan.client_ops,
        routed_ops=plan.routed_ops,
        drain_ops=plan.drain_ops,
        # Copies: the plan is shared through the memo, a result is not.
        rejected_inserts=dict(plan.rejected_inserts),
        router_not_found=dict(plan.router_not_found),
        final_directory=dict(plan.final_directory),
    )
