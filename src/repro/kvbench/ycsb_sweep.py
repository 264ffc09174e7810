"""YCSB core workloads A–F as sweep-engine cells.

Each (workload, system) pair is one :class:`~repro.exec.spec.SweepPoint`
whose cell, :func:`ycsb_cell`, is a module-level pure function of
primitives — the shape the sweep engine requires for process-pool
pickling and content-addressed caching.  The ``ycsb`` experiment
(:func:`run_ycsb_sweep`) is the A-F grid over both systems; the cluster's
multi-tenant router generates its streams with the same
:func:`~repro.kvbench.ycsb.generate_ycsb`, so "YCSB on this testbed" has
exactly one definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.experiment import build_rig, lab_geometry
from repro.errors import WorkloadError
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.report import format_table
from repro.kvbench.runner import run_phase
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec, generate_ycsb
from repro.kvftl.population import KeyScheme

#: The six YCSB core workloads, in canonical order.
YCSB_WORKLOADS = ("A", "B", "C", "D", "E", "F")
#: Systems the cells can drive (short name -> ``build_rig`` system): the
#: KV-SSD and the RocksDB stand-in.
YCSB_SYSTEMS = {"kv": "kvssd", "lsm": "rocksdb"}
#: Key namespace shared by every cell (YCSB's "user########..." keys).
_SCHEME = KeyScheme(prefix=b"user", digits=12)


@dataclass(frozen=True)
class YCSBCellResult:
    """One (workload, system) measurement (picklable, cacheable)."""

    workload: str
    system: str
    mean_us: float
    p99_us: float
    throughput_kops: float
    completed_ops: int
    failed_ops: int


def ycsb_cell(
    workload: str,
    system: str,
    n_ops: int = 600,
    population: int = 3000,
    value_bytes: int = 1000,
    scan_length: int = 20,
    queue_depth: int = 8,
    blocks_per_plane: int = 8,
    seed: int = 1,
) -> YCSBCellResult:
    """Run one YCSB workload against one system — the sweep cell."""
    if system not in YCSB_SYSTEMS:
        raise WorkloadError(
            f"unknown system {system!r}; expected one of {tuple(YCSB_SYSTEMS)}"
        )
    spec = YCSBSpec(
        workload=workload,
        n_ops=n_ops,
        population=population,
        key_scheme=_SCHEME,
        value_bytes=value_bytes,
        scan_length=scan_length,
        seed=seed,
    )
    rig = build_rig(YCSB_SYSTEMS[system], lab_geometry(blocks_per_plane))
    rig.prime(population, value_bytes, _SCHEME)
    run = run_phase(
        rig, f"ycsb{workload}.{system}", generate_ycsb(spec), queue_depth,
        YCSBDriver(rig.adapter, spec), drain=False,
    )
    return YCSBCellResult(
        workload=workload,
        system=system,
        mean_us=run.latency.mean(),
        p99_us=run.latency.summary().p99,
        throughput_kops=run.throughput_kops(),
        completed_ops=run.completed_ops,
        failed_ops=run.failed_ops,
    )


@dataclass
class YCSBResult:
    """Mean latency per core workload, KV-SSD vs the RocksDB stand-in."""

    #: cells[workload][system] with system kv/lsm.
    cells: Dict[str, Dict[str, YCSBCellResult]]

    def ratio(self, workload: str) -> float:
        """KV-SSD mean latency over RocksDB's (>1 favors RocksDB)."""
        pair = self.cells[workload]
        return pair["kv"].mean_us / pair["lsm"].mean_us

    def render(self) -> str:
        rows = [
            [workload, pair["kv"].mean_us, pair["lsm"].mean_us,
             self.ratio(workload)]
            for workload, pair in self.cells.items()
        ]
        return format_table(
            ["workload", "KV-SSD us", "RocksDB us", "KV/RocksDB"], rows
        ) + "\n\nE = scans: no ordered iteration behind a hash index"

    def metrics(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for workload, pair in self.cells.items():
            for system, cell in pair.items():
                metrics[f"{workload}.{system}.mean_us"] = cell.mean_us
                metrics[f"{workload}.{system}.p99_us"] = cell.p99_us
            metrics[f"{workload}.ratio"] = self.ratio(workload)
        return metrics


def run_ycsb_sweep(
    workloads: Tuple[str, ...] = YCSB_WORKLOADS,
    n_ops: int = 600,
    population: int = 3000,
    runner: Optional[SweepRunner] = None,
    seed: int = 1,
    **kwargs: int,
) -> YCSBResult:
    """Execute the grid — the ``ycsb`` experiment (the paper's named
    future work); ``result.cells`` is keyed ``[workload][system]``.

    ``runner=None`` runs cells inline; a :class:`SweepRunner` adds
    process-pool fan-out and the on-disk cache.  Assembly is spec-order
    either way, so the mapping is deterministic.
    """
    cells = grid(
        "ycsb",
        ycsb_cell,
        {"workload": workloads, "system": YCSB_SYSTEMS},
        dict(n_ops=n_ops, population=population, seed=seed, **kwargs),
        runner,
        seed=seed,
    )
    table: Dict[str, Dict[str, YCSBCellResult]] = {}
    for (workload, system), cell in cells.items():
        table.setdefault(workload, {})[system] = cell
    return YCSBResult(table)
