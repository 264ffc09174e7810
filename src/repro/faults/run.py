"""The fault sweep: one workload, both personalities, a series of rates.

:func:`run_fault_sweep` replays the same mixed workload against a KV-SSD
rig and a block-SSD rig at a series of statistical fault rates; its
result (the ``faults`` row of :data:`repro.core.registry.EXPERIMENTS`,
``repro faults``) shows how media errors inflate latency percentiles and
which recovery counters moved.

A single ``rate`` knob scales the whole :class:`FaultConfig` through
:func:`fault_profile` — corrected read errors dominate (they are by far
the most common NAND event), with uncorrectable reads, program fails,
and erase fails orders of magnitude rarer, roughly the proportions the
reliability literature reports for enterprise TLC.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner, grid
from repro.faults.model import FaultConfig
from repro.kvbench.report import (
    Layout, Result, Table, label, named, ratio, rounded, spell,
)
from repro.kvbench.runner import run_phase
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


_TAG = "{device}-ssd.{rate:g}"

_COLUMNS = {
    "system": label("{device}-ssd"), "rate": label("{rate:g}"),
    "ops": f"{_TAG}.completed", "fail": f"{_TAG}.failed",
    "p50 us": (f"{_TAG}.p50_us", rounded(1)), "p99 us": (f"{_TAG}.p99_us", rounded(1)),
    "retry": f"{_TAG}.read_retries", "corr": f"{_TAG}.corrected_reads",
    "uncorr": f"{_TAG}.uncorrectable_reads", "pfail": f"{_TAG}.program_fails",
    "retired": f"{_TAG}.retired_blocks",
    "mode": (f"{_TAG}.read_only", lambda read_only: "RO" if read_only else "rw"),
}


def _table(r: Result) -> str:
    """One row per (personality, rate); with a rate-0 point in the sweep,
    each row's tail inflation over its personality's clean run."""
    inflation = {f"{q} x": f"{_TAG}.{q}_inflation" for q in ("p99", "p999")}
    clean = 0.0 in r.axes["rate"]
    return Table(("device", "rate"), {**_COLUMNS, **(inflation if clean else {})})(r)


def _fault_tags(r: Result) -> List[str]:
    return [tag for tag, _ in spell(_TAG, r.axes)]


#: Read retries are invisible at the median and stretch the tail.
FAULT_SWEEP = Layout(
    derived={
        f"{_TAG}.p99_inflation": ratio(f"{_TAG}.p99_us", "{device}-ssd.0.p99_us"),
        f"{_TAG}.p999_inflation": ratio(f"{_TAG}.p999_us", "{device}-ssd.0.p999_us"),
        "worst_unexplained_failures": lambda r: max(
            abs(r[f"{tag}.failed"] - r[f"{tag}.uncorrectable_reads"])
            for tag in _fault_tags(r)
        ),
        "retry_steps_not_growing": lambda r: sum(
            r[f"{device}-ssd.{a:g}.read_retries"] >= r[f"{device}-ssd.{b:g}.read_retries"]
            for device in r.axes["device"]
            for a, b in zip(r.axes["rate"], r.axes["rate"][1:])
        ),
        "read_only_cells": lambda r: sum(r[f"{tag}.read_only"] for tag in _fault_tags(r)),
        "lesser_p999_inflation.0.05": lambda r: min(
            r[f"{device}-ssd.0.05.p999_inflation"] for device in r.axes["device"]
        ),
    },
    metrics=tuple(f"{_TAG}.{name}" for name in (
        "completed", "failed", "p50_us", "p99_us", "p999_us", "read_retries",
        "uncorrectable_reads", "program_fails", "retired_blocks", "read_only",
        "p999_inflation",
    )),
    sections=(
        _table,
        "rate = per-read corrected-error probability; rarer events "
        "(uncorrectable, program/erase fail) scale down from it",
    ),
)


def _fault_cell(device: str, rate: float, seed: int, n_ops: int,
                blocks_per_plane: int) -> Dict[str, float]:
    """One (personality, rate) cell: prime, then the 4 KiB 50/50 mixed
    workload at QD8."""
    rig = build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        fault_config=fault_profile(rate, seed),
    )
    scheme = KeyScheme(prefix=b"key-", digits=12)
    rig.prime(n_ops, 4096, scheme)
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="mixed",
        population=n_ops,
        key_scheme=scheme,
        value_bytes=4096,
        read_fraction=0.5,
        seed=47,
    )
    run = run_phase(
        rig, f"faults.{device}.{rate:g}", spec, 8, rig.adapter_for(4096),
        drain=False, stop_after_us=STOP_AFTER_US,
    )
    latency = run.latency.summary()
    # Device telemetry delta over the measured phase.
    stats = run.device_stats
    return {
        "completed": run.completed_ops,
        "failed": run.failed_ops,
        "p50_us": latency.p50,
        "p99_us": latency.p99,
        "p999_us": latency.p999,
        "read_retries": stats.read_retries,
        "corrected_reads": stats.corrected_reads,
        "uncorrectable_reads": stats.uncorrectable_reads,
        "program_fails": stats.program_fails,
        "erase_fails": stats.erase_fails,
        "retired_blocks": stats.retired_blocks,
        # Whether the device degraded to read-only during the run.
        "read_only": int(rig.device.core.read_only),
    }


def run_fault_sweep(
    rates: Sequence[float] = DEFAULT_RATES,
    n_ops: int = 1200,
    seed: int = 7,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
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
        dict(seed=seed, n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    return FAULT_SWEEP.result(named(cells, ("device", "rate"), _TAG),
                              device=DIRECT_SYSTEMS, rate=rates)


#: Column order of :func:`write_sweep_csv` (stable: tooling parses it).
SWEEP_CSV_COLUMNS = (
    "personality", "rate", "completed_ops", "failed_ops",
    "p50_us", "p99_us", "p999_us",
    "read_retries", "corrected_reads", "uncorrectable_reads",
    "program_fails", "erase_fails", "retired_blocks", "read_only",
)


def write_sweep_csv(
    result: Result, path: Union[str, "os.PathLike[str]"]
) -> int:
    """Write a :func:`run_fault_sweep` result as CSV to ``path``; returns
    rows written.

    Accepts any path-like value and creates missing parent directories,
    so ``repro faults --faults-out results/sweep.csv`` just works.
    """
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    tags = list(spell(_TAG, result.axes))
    with target.open("w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for tag, coords in tags:
            writer.writerow([
                f"{coords['device']}-ssd", f"{coords['rate']:g}",
                *(result[f"{tag}.{name}"] for name in ("completed", "failed")),
                *(round(result[f"{tag}.{q}_us"], 3) for q in ("p50", "p99", "p999")),
                *(result[f"{tag}.{name}"] for name in (
                    "read_retries", "corrected_reads", "uncorrectable_reads",
                    "program_fails", "erase_fails", "retired_blocks", "read_only",
                )),
            ])
    return len(tags)
