"""The frontend load sweep: latency vs offered load, per SLO class.

Each sweep point runs one fixed two-tenant scenario — a latency-sensitive
read tenant (Poisson arrivals, tight deadline) and a bursty batch tenant
(MMPP arrivals, loose deadline) — at one offered load.  Points are
independent :class:`~repro.exec.spec.SweepPoint` cells, so the sweep fans
out over the process pool and caches like every other figure.

The result is the serving-path curve the ROADMAP calls for: p50/p99/p999
vs offered load with a saturation knee.  Below the knee the tail tracks
device service time; above it the pre-submit queueing phases absorb the
excess — the ``lat.queueing_share_at_knee`` value says how much of the
added tail is queueing, straight from the request timestamp trails.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.exec.runner import SweepRunner, grid
from repro.frontend.arrivals import ArrivalSpec
from repro.frontend.frontend import ClassStats, run_frontend
from repro.frontend.spec import FrontendSpec, SLOClass, TenantLoad
from repro.kvbench.report import Layout, Result, Table, label, rounded

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
    scheduler: str = "edf",
    population: int = 400,
    blocks_per_plane: int = 8,
    seed: int = 1,
) -> FrontendSpec:
    """The fixed two-tenant scenario at one offered load.

    ``n_requests`` is the total request count, split by tenant share, so
    every sweep point offers the same amount of work at a different rate.
    The latency tenant reads 4 KiB values; the bulk tenant's mix is 70 %
    reads of 512 B values.
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
            value_bytes=4096,
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
            read_fraction=0.7,
            value_bytes=512,
            population=population,
            seed=seed + 1,
        ),
    )
    return FrontendSpec(
        classes=(LATENCY_CLASS, BATCH_CLASS),
        tenants=tenants,
        admit_capacity=admit_capacity,
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


def _knee_kops(r: Result) -> Optional[float]:
    """Lowest load whose lat-class p99 exceeds ``KNEE_FACTOR`` x the
    lowest load's; none when the sweep never saturates."""
    loads = r.axes["load"]
    baseline = r[f"lat.{loads[0]:g}k.p99_us"]
    for load in loads[1:]:
        if r[f"lat.{load:g}k.p99_us"] > KNEE_FACTOR * baseline:
            return float(load)
    return None


def _queueing_share(r: Result) -> float:
    """Fraction of the lat-class p99 added from the lowest load to the
    knee that is frontend queueing (pre-submit wait), per the trails."""
    low, knee = f"lat.{r.axes['load'][0]:g}k", f"lat.{r['knee_kops']:g}k"
    added_total = float(r[f"{knee}.p99_us"] - r[f"{low}.p99_us"])
    if added_total <= 0.0:
        return 0.0
    return float(r[f"{knee}.queue_p99_us"] - r[f"{low}.queue_p99_us"]) / added_total


def _verdict(r: Result) -> str:
    if "knee_kops" not in r.values:
        return "no saturation knee within the swept loads"
    return (
        f"saturation knee at {r['knee_kops']:g} kops offered "
        f"(queueing accounts for {100.0 * r['lat.queueing_share_at_knee']:.0f}% "
        "of the added lat-class p99)"
    )


def _percent(fraction: float) -> float:
    return round(100.0 * fraction, 1)


_AT = "{cls}.{load:g}k"

#: Per-SLO-class tail latency and shed fraction vs offered load.
FRONTEND_LOAD = Layout(
    derived={
        "knee_kops": _knee_kops,
        "lat.queueing_share_at_knee": _queueing_share,
    },
    metrics=(*(f"{_AT}.{name}" for name in (
        "p50_us", "p99_us", "p999_us", "queue_p99_us", "shed_fraction",
        "violation_fraction",
    )), "throughput.{load:g}k", "mean_batch.{load:g}k", "knee_kops"),
    sections=(
        Table(("load",), {
            "kops": label("{load:g}"), "{cls} p50": (f"{_AT}.p50_us", rounded(1)),
            "{cls} p99": (f"{_AT}.p99_us", rounded(1)),
            "{cls} p999": (f"{_AT}.p999_us", rounded(1)),
            "{cls} shed%": (f"{_AT}.shed_fraction", _percent),
            "{cls} viol%": (f"{_AT}.violation_fraction", _percent),
            "thr kops": ("throughput.{load:g}k", rounded(1)),
        }),
        _verdict,
    ),
)


def frontend_load_sweep(
    loads_kops: Sequence[float] = DEFAULT_LOADS_KOPS,
    n_requests: int = 800,
    scheduler: str = "edf",
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Sweep offered load; one independent cell per load point."""
    cells = grid(
        "frontend",
        _frontend_load_cell,
        {"load_kops": loads_kops},
        dict(n_requests=n_requests, scheduler=scheduler),
        runner,
    )
    class_names = (LATENCY_CLASS.name, BATCH_CLASS.name)
    values: Dict[str, float] = {}
    for load, cell in cells.items():
        for name in class_names:
            stats: ClassStats = cell["classes"][name]
            at = f"{name}.{load:g}k"
            # A class with no dispatched request has no summaries: zeros.
            values.update({
                f"{at}.p50_us": getattr(stats.latency, "p50", 0.0),
                f"{at}.p99_us": getattr(stats.latency, "p99", 0.0),
                f"{at}.p999_us": getattr(stats.latency, "p999", 0.0),
                f"{at}.queue_p99_us": getattr(stats.queueing, "p99", 0.0),
                f"{at}.shed_fraction": stats.shed_fraction,
                f"{at}.violation_fraction": stats.violation_fraction,
            })
        values[f"throughput.{load:g}k"] = cell["throughput_kops"]
        values[f"mean_batch.{load:g}k"] = cell["mean_batch"]
    return FRONTEND_LOAD.result(values, load=loads_kops, cls=class_names)
