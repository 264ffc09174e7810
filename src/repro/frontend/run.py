"""The frontend load sweep: latency vs offered load, per SLO class.

Each sweep point runs one fixed two-tenant scenario — a latency-sensitive
read tenant (Poisson arrivals, tight deadline) and a bursty batch tenant
(MMPP arrivals, loose deadline) — at one offered load.  Points are
independent :class:`~repro.exec.spec.SweepPoint` cells, so the sweep fans
out over the process pool and caches like every other figure.

The result is the serving-path curve the ROADMAP calls for: p50/p99/p999
vs offered load with a saturation knee.  Below the knee the tail tracks
device service time; above it the pre-submit queueing phases absorb the
excess — :meth:`FrontendLoadResult.queueing_share` quantifies how much of
the added tail is queueing, straight from the request timestamp trails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.runner import SweepRunner, grid
from repro.frontend.arrivals import ArrivalSpec
from repro.frontend.frontend import PHASES, ClassStats, run_frontend
from repro.frontend.spec import FrontendSpec, SLOClass, TenantLoad
from repro.kvbench.report import format_table

#: The sweep's SLO classes: a tight latency class and a bulk class.
LATENCY_CLASS = SLOClass(name="lat", deadline_us=2_000.0)
BATCH_CLASS = SLOClass(name="bulk", deadline_us=20_000.0)

#: Fraction of the offered load carried by the latency tenant.
LATENCY_SHARE = 0.7

#: p99 inflation over the lowest load that marks the saturation knee.
KNEE_FACTOR = 1.75

#: Default offered loads (kops).  The low end sits on the device-bound
#: plateau (p99 flat within noise), the high end far past saturation.
DEFAULT_LOADS_KOPS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


def build_load_spec(
    load_ops_s: float,
    n_requests: int,
    admit_capacity: int = 512,
    batch_max: int = 8,
    batch_linger_us: float = 20.0,
    dispatch_width: int = 8,
    scheduler: str = "edf",
    personality: str = "kv",
    value_bytes: int = 4096,
    bulk_value_bytes: int = 512,
    bulk_read_fraction: float = 0.7,
    population: int = 400,
    blocks_per_plane: int = 8,
    seed: int = 1,
) -> FrontendSpec:
    """The fixed two-tenant scenario at one offered load.

    ``n_requests`` is the total request count, split by tenant share, so
    every sweep point offers the same amount of work at a different rate.
    """
    lat_requests = max(1, round(n_requests * LATENCY_SHARE))
    bulk_requests = max(1, n_requests - lat_requests)
    tenants = (
        TenantLoad(
            name="lat",
            slo=LATENCY_CLASS.name,
            arrivals=ArrivalSpec(
                rate_ops_s=load_ops_s * LATENCY_SHARE,
                n_requests=lat_requests,
                process="poisson",
                seed=seed,
            ),
            op="read",
            value_bytes=value_bytes,
            population=population,
            seed=seed,
        ),
        TenantLoad(
            name="bulk",
            slo=BATCH_CLASS.name,
            arrivals=ArrivalSpec(
                rate_ops_s=load_ops_s * (1.0 - LATENCY_SHARE),
                n_requests=bulk_requests,
                process="mmpp",
                seed=seed + 1,
            ),
            op="mixed",
            read_fraction=bulk_read_fraction,
            value_bytes=bulk_value_bytes,
            population=population,
            seed=seed + 1,
        ),
    )
    return FrontendSpec(
        classes=(LATENCY_CLASS, BATCH_CLASS),
        tenants=tenants,
        personality=personality,
        admit_capacity=admit_capacity,
        batch_max=batch_max,
        batch_linger_us=batch_linger_us,
        dispatch_width=dispatch_width,
        scheduler=scheduler,
        blocks_per_plane=blocks_per_plane,
        seed=seed,
    )


def _frontend_load_cell(load_kops: float, **scenario: Any) -> Dict[str, object]:
    """One offered-load point, reduced to its per-class stats
    (``scenario`` goes to :func:`build_load_spec`)."""
    result = run_frontend(
        build_load_spec(load_ops_s=load_kops * 1000.0, **scenario)
    )
    return {
        "classes": result.per_class,
        "throughput_kops": result.throughput_kops(),
        "mean_batch": result.mean_batch_size,
    }


@dataclass
class FrontendLoadResult:
    """Per-SLO-class tail latency and shed fraction vs offered load."""

    loads_kops: Tuple[float, ...]
    class_names: Tuple[str, ...]
    #: class -> load (kops) -> value.
    p50: Dict[str, Dict[float, float]] = field(default_factory=dict)
    p99: Dict[str, Dict[float, float]] = field(default_factory=dict)
    p999: Dict[str, Dict[float, float]] = field(default_factory=dict)
    queue_p99: Dict[str, Dict[float, float]] = field(default_factory=dict)
    shed_fraction: Dict[str, Dict[float, float]] = field(default_factory=dict)
    violation_fraction: Dict[str, Dict[float, float]] = field(
        default_factory=dict
    )
    phase_means: Dict[str, Dict[float, Dict[str, float]]] = field(
        default_factory=dict
    )
    throughput_kops: Dict[float, float] = field(default_factory=dict)
    mean_batch: Dict[float, float] = field(default_factory=dict)

    def knee_kops(self, cls: str = LATENCY_CLASS.name) -> Optional[float]:
        """Lowest load whose p99 exceeds ``KNEE_FACTOR`` x the baseline.

        ``None`` when the sweep never saturates.
        """
        baseline = self.p99[cls][self.loads_kops[0]]
        for load in self.loads_kops[1:]:
            if self.p99[cls][load] > KNEE_FACTOR * baseline:
                return load
        return None

    def queueing_share(self, cls: str, load_kops: float) -> float:
        """Fraction of the p99 latency added over the baseline load that
        is frontend queueing (pre-submit wait), per the timestamp trails."""
        base = self.loads_kops[0]
        added_total = self.p99[cls][load_kops] - self.p99[cls][base]
        if added_total <= 0.0:
            return 0.0
        added_queue = self.queue_p99[cls][load_kops] - self.queue_p99[cls][base]
        return added_queue / added_total

    def render(self) -> str:
        header = ["kops"]
        for cls in self.class_names:
            header += [f"{cls} p50", f"{cls} p99", f"{cls} p999",
                       f"{cls} shed%", f"{cls} viol%"]
        header.append("thr kops")
        rows = []
        for load in self.loads_kops:
            row: List[object] = [f"{load:g}"]
            for cls in self.class_names:
                row += [
                    round(self.p50[cls][load], 1),
                    round(self.p99[cls][load], 1),
                    round(self.p999[cls][load], 1),
                    round(100.0 * self.shed_fraction[cls][load], 1),
                    round(100.0 * self.violation_fraction[cls][load], 1),
                ]
            row.append(round(self.throughput_kops[load], 1))
            rows.append(row)
        knee = self.knee_kops()
        if knee is None:
            verdict = "no saturation knee within the swept loads"
        else:
            share = self.queueing_share(LATENCY_CLASS.name, knee)
            verdict = (
                f"saturation knee at {knee:g} kops offered "
                f"(queueing accounts for {100.0 * share:.0f}% of the "
                "added lat-class p99)"
            )
        return format_table(header, rows) + "\n\n" + verdict

    def metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for load in self.loads_kops:
            for cls in self.class_names:
                tag = f"{cls}.{load:g}k"
                metrics[f"{tag}.p50_us"] = self.p50[cls][load]
                metrics[f"{tag}.p99_us"] = self.p99[cls][load]
                metrics[f"{tag}.p999_us"] = self.p999[cls][load]
                metrics[f"{tag}.queue_p99_us"] = self.queue_p99[cls][load]
                metrics[f"{tag}.shed_fraction"] = self.shed_fraction[cls][load]
                metrics[f"{tag}.violation_fraction"] = (
                    self.violation_fraction[cls][load]
                )
            metrics[f"throughput.{load:g}k"] = self.throughput_kops[load]
            metrics[f"mean_batch.{load:g}k"] = self.mean_batch[load]
        knee = self.knee_kops()
        metrics["knee_kops"] = -1.0 if knee is None else knee
        return metrics


def frontend_load_sweep(
    loads_kops: Sequence[float] = DEFAULT_LOADS_KOPS,
    n_requests: int = 800,
    scheduler: str = "edf",
    personality: str = "kv",
    blocks_per_plane: int = 8,
    seed: int = 1,
    runner: Optional[SweepRunner] = None,
) -> FrontendLoadResult:
    """Sweep offered load; one independent cell per load point."""
    cells = grid(
        "frontend",
        _frontend_load_cell,
        {"load_kops": loads_kops},
        dict(n_requests=n_requests, scheduler=scheduler,
             personality=personality, blocks_per_plane=blocks_per_plane,
             seed=seed),
        runner,
    )
    class_names = (LATENCY_CLASS.name, BATCH_CLASS.name)
    result = FrontendLoadResult(
        loads_kops=tuple(loads_kops), class_names=class_names
    )
    for name in class_names:
        result.p50[name] = {}
        result.p99[name] = {}
        result.p999[name] = {}
        result.queue_p99[name] = {}
        result.shed_fraction[name] = {}
        result.violation_fraction[name] = {}
        result.phase_means[name] = {}
    for load_kops, cell in cells.items():
        result.throughput_kops[load_kops] = cell["throughput_kops"]
        result.mean_batch[load_kops] = cell["mean_batch"]
        for name in class_names:
            stats: ClassStats = cell["classes"][name]
            # A class with no dispatched request has no summaries: zeros.
            result.p50[name][load_kops] = getattr(stats.latency, "p50", 0.0)
            result.p99[name][load_kops] = getattr(stats.latency, "p99", 0.0)
            result.p999[name][load_kops] = getattr(stats.latency, "p999", 0.0)
            result.queue_p99[name][load_kops] = getattr(
                stats.queueing, "p99", 0.0
            )
            result.shed_fraction[name][load_kops] = stats.shed_fraction
            result.violation_fraction[name][load_kops] = (
                stats.violation_fraction
            )
            result.phase_means[name][load_kops] = {
                phase: stats.phase_means.get(phase, 0.0) for phase in PHASES
            }
    return result
