"""The fault sweep: one workload, both personalities, a series of rates.

:func:`run_fault_sweep` replays the same mixed workload against a KV-SSD
rig and a block-SSD rig at a series of statistical fault rates; its
:class:`FaultSweepResult` (the ``faults`` row of
:data:`repro.core.registry.EXPERIMENTS`, ``repro faults``) shows how
media errors inflate latency percentiles and which recovery counters
moved.

A single ``rate`` knob scales the whole :class:`FaultConfig` through
:func:`fault_profile` — corrected read errors dominate (they are by far
the most common NAND event), with uncorrectable reads, program fails,
and erase fails orders of magnitude rarer, roughly the proportions the
reliability literature reports for enterprise TLC.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner, grid
from repro.faults.model import FaultConfig
from repro.ftl.core import DeviceStats
from repro.kvbench.report import format_table
from repro.kvbench.runner import RunResult, run_phase
from repro.kvbench.workload import WorkloadSpec
from repro.kvftl.population import KeyScheme

#: Default statistical rates the sweep visits (0 = perfect flash).
DEFAULT_RATES = (0.0, 1e-3, 1e-2, 5e-2)

#: Simulated-time bound per measured phase (a heavily faulted run must
#: terminate even if recovery stalls it).
STOP_AFTER_US = 60e6


def fault_profile(rate: float, seed: int = 1) -> Optional[FaultConfig]:
    """Scale the single ``rate`` knob into a full fault configuration.

    ``rate`` is the per-read probability of a *corrected* (retryable)
    error; rarer events derive from it.  ``0.0`` returns ``None`` —
    perfect flash, the injector never built.
    """
    if rate < 0.0 or rate > 0.2:
        raise ConfigurationError(
            f"fault rate must be in [0, 0.2], got {rate}"
        )
    if rate == 0.0:
        return None
    return FaultConfig(
        seed=seed,
        read_corrected_prob=rate,
        read_uncorrectable_prob=rate / 50.0,
        program_fail_prob=rate / 10.0,
        erase_fail_prob=rate / 100.0,
    )


@dataclass
class FaultPoint:
    """One (personality, rate) cell of the sweep."""

    personality: str
    rate: float
    run: RunResult
    #: Device telemetry delta over the measured phase.
    stats: DeviceStats
    #: Injector decision counts by fault kind (empty at rate 0).
    injected: Dict[str, int] = field(default_factory=dict)
    #: Whether the device degraded to read-only during the run.
    read_only: bool = False

    def latency_summary(self) -> Dict[str, float]:
        return self.run.latency.summary().as_dict()


@dataclass
class FaultSweepResult:
    """Every point of one sweep, personality-major, rate-minor."""

    points: List[FaultPoint]

    def inflation(self, point: FaultPoint, quantile: str) -> float:
        """``point``'s latency ``quantile`` over its personality's rate-0
        point (``nan`` without one): read retries are invisible at the
        median and stretch the tail."""
        for clean in self.points:
            if clean.personality == point.personality and clean.rate == 0.0:
                return (point.latency_summary()[quantile]
                        / clean.latency_summary()[quantile])
        return math.nan

    def render(self) -> str:
        has_clean = any(point.rate == 0.0 for point in self.points)
        headers = ["system", "rate", "ops", "fail", "p50 us", "p99 us",
                   "retry", "corr", "uncorr", "pfail", "retired", "mode"]
        if has_clean:
            headers += ["p99 x", "p999 x"]
        rows = []
        for point in self.points:
            latency = point.latency_summary()
            stats = point.stats
            row = [
                point.personality, f"{point.rate:g}",
                point.run.completed_ops, point.run.failed_ops,
                round(latency["p50"], 1), round(latency["p99"], 1),
                stats.read_retries, stats.corrected_reads,
                stats.uncorrectable_reads, stats.program_fails,
                stats.retired_blocks,
                "RO" if point.read_only else "rw",
            ]
            if has_clean:
                row += [self.inflation(point, q) for q in ("p99", "p999")]
            rows.append(row)
        return (
            format_table(headers, rows)
            + "\n\nrate = per-read corrected-error probability; rarer events "
            "(uncorrectable, program/erase fail) scale down from it"
        )

    def metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for point in self.points:
            tag = f"{point.personality}.{point.rate:g}"
            latency = point.latency_summary()
            stats = point.stats
            metrics.update({
                f"{tag}.completed": point.run.completed_ops,
                f"{tag}.failed": point.run.failed_ops,
                f"{tag}.p50_us": latency["p50"],
                f"{tag}.p99_us": latency["p99"],
                f"{tag}.p999_us": latency["p999"],
                f"{tag}.read_retries": stats.read_retries,
                f"{tag}.uncorrectable_reads": stats.uncorrectable_reads,
                f"{tag}.program_fails": stats.program_fails,
                f"{tag}.retired_blocks": stats.retired_blocks,
                f"{tag}.read_only": int(point.read_only),
            })
            inflation = self.inflation(point, "p999")
            if not math.isnan(inflation):
                metrics[f"{tag}.p999_inflation"] = inflation
        return metrics


def _fault_cell(device: str, rate: float, seed: int, n_ops: int,
                value_bytes: int, blocks_per_plane: int, queue_depth: int,
                workload_seed: int) -> FaultPoint:
    """One (personality, rate) cell: prime, then the mixed workload."""
    rig = build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        fault_config=fault_profile(rate, seed),
    )
    scheme = KeyScheme(prefix=b"key-", digits=12)
    rig.prime(n_ops, value_bytes, scheme)
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="mixed",
        population=n_ops,
        key_scheme=scheme,
        value_bytes=value_bytes,
        read_fraction=0.5,
        seed=workload_seed,
    )
    run = run_phase(
        rig, f"faults.{device}.{rate:g}", spec, queue_depth,
        rig.adapter_for(value_bytes), drain=False,
        stop_after_us=STOP_AFTER_US,
    )
    faults = rig.device.array.faults
    return FaultPoint(
        f"{device}-ssd", rate, run, run.device_stats,
        injected=dict(faults.injected) if faults is not None else {},
        read_only=rig.device.core.read_only,
    )


def run_fault_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    n_ops: int = 1200,
    seed: int = 7,
    value_bytes: int = 4096,
    blocks_per_plane: int = 16,
    queue_depth: int = 8,
    workload_seed: int = 47,
    runner: Optional[SweepRunner] = None,
) -> FaultSweepResult:
    """Run the sweep; points are ordered personality-major, rate-minor.

    Every point gets a *fresh* rig (fault injection mutates wear and the
    grown-defect list) but replays the identical operation stream, so
    rate 0 within each personality is the clean baseline for the rest.
    ``runner`` fans the (personality, rate) cells out over a process
    pool and/or the result cache; point order is fixed either way.
    """
    if not rates:
        raise ConfigurationError("fault sweep needs at least one rate")
    for rate in rates:
        fault_profile(rate, seed)  # validate every rate before fan-out
    cells = grid(
        "faults",
        _fault_cell,
        {"device": DIRECT_SYSTEMS, "rate": rates},
        dict(seed=seed, n_ops=n_ops, value_bytes=value_bytes,
             blocks_per_plane=blocks_per_plane, queue_depth=queue_depth,
             workload_seed=workload_seed),
        runner,
    )
    return FaultSweepResult(list(cells.values()))


#: Column order of :func:`write_sweep_csv` (stable: tooling parses it).
SWEEP_CSV_COLUMNS = (
    "personality", "rate", "completed_ops", "failed_ops",
    "p50_us", "p99_us", "p999_us",
    "read_retries", "corrected_reads", "uncorrectable_reads",
    "program_fails", "erase_fails", "retired_blocks", "read_only",
)


def write_sweep_csv(
    points: Sequence[FaultPoint], path: Union[str, "os.PathLike[str]"]
) -> int:
    """Write sweep results as CSV to ``path``; returns rows written.

    Accepts any path-like value and creates missing parent directories,
    so ``repro faults --faults-out results/sweep.csv`` just works.
    """
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for point in points:
            latency = point.latency_summary()
            stats = point.stats
            writer.writerow([
                point.personality, f"{point.rate:g}",
                point.run.completed_ops, point.run.failed_ops,
                round(latency["p50"], 3), round(latency["p99"], 3),
                round(latency["p999"], 3),
                stats.read_retries, stats.corrected_reads,
                stats.uncorrectable_reads, stats.program_fails,
                stats.erase_fails, stats.retired_blocks,
                int(point.read_only),
            ])
    return len(points)
