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

from typing import Dict, Optional, Tuple

from repro.core.experiment import build_rig, lab_geometry
from repro.errors import WorkloadError
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.report import Layout, Result, Table, label, named, ratio
from repro.kvbench.runner import run_phase
from repro.kvbench.ycsb import (
    YCSB_VALUE_BYTES,
    YCSBDriver,
    YCSBSpec,
    generate_ycsb,
)
from repro.kvftl.population import KeyScheme

#: The six YCSB core workloads, in canonical order.
YCSB_WORKLOADS = ("A", "B", "C", "D", "E", "F")
#: Systems the cells can drive (short name -> ``build_rig`` system): the
#: KV-SSD and the RocksDB stand-in.
YCSB_SYSTEMS = {"kv": "kvssd", "lsm": "rocksdb"}
#: Key namespace shared by every cell (YCSB's "user########..." keys).
_SCHEME = KeyScheme(prefix=b"user", digits=12)


YCSB = Layout(
    derived={
        "{workload}.ratio": ratio("{workload}.kv.mean_us", "{workload}.lsm.mean_us"),
        "E.ratio_over_worst_point": lambda r: (
            r["E.ratio"] / max(r[f"{w}.ratio"] for w in "ABCDF")),
        "A_over_C.ratio": ratio("A.ratio", "C.ratio"),
    },
    sections=(
        Table(("workload",), {
            "workload": label("{workload}"), "KV-SSD us": "{workload}.kv.mean_us",
            "RocksDB us": "{workload}.lsm.mean_us", "KV/RocksDB": "{workload}.ratio",
        }),
        "E = scans: no ordered iteration behind a hash index",
    ),
)


def ycsb_cell(
    workload: str,
    system: str,
    n_ops: int = 600,
    population: int = 3000,
) -> Dict[str, float]:
    """Run one YCSB workload against one system — the sweep cell: 1,000 B
    records, 20-record scans, QD8 on 8 blocks a plane."""
    if system not in YCSB_SYSTEMS:
        raise WorkloadError(
            f"unknown system {system!r}; expected one of {tuple(YCSB_SYSTEMS)}"
        )
    spec = YCSBSpec(
        workload=workload,
        n_ops=n_ops,
        population=population,
        key_scheme=_SCHEME,
        scan_length=20,
    )
    rig = build_rig(YCSB_SYSTEMS[system], lab_geometry(8))
    rig.prime(population, YCSB_VALUE_BYTES, _SCHEME)
    run = run_phase(
        rig, f"ycsb{workload}.{system}", generate_ycsb(spec), 8,
        YCSBDriver(rig.adapter, spec), drain=False,
    )
    return {
        "mean_us": run.latency.mean(),
        "p99_us": run.latency.summary().p99,
        "throughput_kops": run.throughput_kops(),
        "completed": run.completed_ops,
        "failed": run.failed_ops,
    }


def run_ycsb_sweep(
    workloads: Tuple[str, ...] = YCSB_WORKLOADS,
    n_ops: int = 600,
    population: int = 3000,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Execute the grid — the ``ycsb`` experiment (the paper's named
    future work): mean latency per core workload, KV-SSD vs the RocksDB
    stand-in, valued as ``{workload}.{system}.mean_us`` (system kv/lsm).

    ``runner=None`` runs cells inline; a :class:`SweepRunner` adds
    process-pool fan-out and the on-disk cache.  Assembly is spec-order
    either way, so the result is deterministic.
    """
    cells = grid(
        "ycsb",
        ycsb_cell,
        {"workload": workloads, "system": YCSB_SYSTEMS},
        dict(n_ops=n_ops, population=population),
        runner,
        seed=1,
    )
    return YCSB.result(named(cells, ("workload", "system"), "{workload}.{system}"),
                       workload=workloads, system=YCSB_SYSTEMS)
