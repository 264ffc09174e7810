"""Reproduction of the paper's headline scalars (Sec. I / Sec. IV).

The abstract and introduction quote a handful of summary numbers; this
module measures each on the simulated stacks: host CPU reduction vs
RocksDB and Aerospike, KV vs block direct-I/O bandwidth and latency for
4 KiB random ops (the read extreme occurs at high index occupancy),
end-to-end gains, and the maximum storable KVP count.  What the paper
reports for each is the ``paper`` text of the ``headline`` row's claims
in :mod:`repro.core.registry`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.core.experiment import build_rig, lab_geometry
from repro.core.figures import (
    FILL_SCHEME,
    fig2_end_to_end,
    fig3_index_occupancy,
    fig4_value_size_concurrency,
)
from repro.exec.runner import SweepRunner
from repro.kvbench.report import Layout, Result, format_table
from repro.kvbench.runner import run_phase
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvftl.config import INDEX_REGION_FRACTION, INDEX_SLOT_BYTES
from repro.units import KIB

#: (label, value, format) of each row of the rendered table.
_ROWS = (
    ("host CPU reduction vs RocksDB", "cpu_reduction_vs_rocksdb", "{:.1f}x"),
    ("host CPU reduction vs Aerospike", "cpu_reduction_vs_aerospike", "{:.1f}x"),
    ("4K rand read BW, KV/block (QD1, 45% fill)", "bw_ratio_4k_rand_read", "{:.2f}x"),
    ("4K rand write BW, KV/block (QD1, 45% fill)", "bw_ratio_4k_rand_write", "{:.2f}x"),
    ("direct read latency, KV/block (QD1)", "latency_ratio_read_qd1", "{:.2f}x"),
    ("direct read latency at high occupancy", "latency_ratio_read_high_occupancy",
     "{:.2f}x"),
    ("direct write latency, KV/block (QD1)", "latency_ratio_write_qd1", "{:.2f}x"),
    ("e2e insert gain vs RocksDB", "e2e_insert_gain_vs_rocksdb", "{:.1f}x"),
    ("e2e update gain vs Aerospike", "e2e_update_gain_vs_aerospike", "{:.2f}x"),
    ("max KVPs on 3.84 TB", "max_kvps_billions", "{:.2f} billion"),
)

HEADLINE = Layout(
    derived={
        "max_kvps_billions": lambda r: r["max_kvps_full_scale"] / 1e9,
        "cpu_reduction.aerospike_over_rocksdb": lambda r: (
            r["cpu_reduction_vs_aerospike"] / r["cpu_reduction_vs_rocksdb"]),
    },
    sections=(lambda r: format_table(["metric", "measured"], [
        (label, fmt.format(r[name])) for label, name, fmt in _ROWS
    ]),),
)


def _direct_bw_ratios(blocks_per_plane: int, n_ops: int) -> tuple:
    """KV/block 4 KiB random direct-I/O bandwidth ratios at QD1.

    The paper's low-water marks are a direct-access comparison on a
    *populated* device, where the KV index no longer fits DRAM — measured
    here at ~45% of the device's physical fill.
    """
    size = 4 * KIB
    geometry = lab_geometry(blocks_per_plane)
    kv_rig, block_rig = build_rig("kvssd", geometry), build_rig("block", geometry)
    key_bytes = FILL_SCHEME.key_bytes
    population = kv_rig.pair_capacity(key_bytes, size, fraction=0.45)
    latency = {}
    for tag, rig in (("kv", kv_rig), ("blk", block_rig)):
        base = WorkloadSpec(
            n_ops=n_ops, op="read", pattern=Pattern.UNIFORM,
            population=min(population, rig.pair_capacity(key_bytes, size)),
            key_scheme=FILL_SCHEME, value_bytes=size,
        )
        rig.prime(population, size, FILL_SCHEME)
        latency[tag] = {
            op_name: run_phase(
                rig, f"headline.{tag}.{op_name}",
                replace(base, op=op_kind, seed=seed), 1,
                rig.adapter_for(size), drain=False,
            ).latency.mean()
            for op_name, op_kind, seed in (
                ("read", "read", 83), ("write", "update", 89)
            )
        }
    # Same op count and size: bandwidth ratio = inverse latency ratio.
    return tuple(
        latency["blk"][op] / latency["kv"][op] for op in ("read", "write")
    )


def headline_scalars(
    n_ops: int = 2500,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Measure all headline scalars on scaled rigs.

    ``runner`` serves the three figure sweeps underneath; the direct
    bandwidth probe always runs inline.
    """
    fig2 = fig2_end_to_end(
        n_ops=n_ops,
        patterns=("rand",),
        blocks_per_plane=blocks_per_plane,
        runner=runner,
    )
    fig4 = fig4_value_size_concurrency(
        value_sizes=(4 * KIB,),
        queue_depths=(1, 32),
        n_ops=n_ops,
        blocks_per_plane=blocks_per_plane,
        runner=runner,
    )
    fig3 = fig3_index_occupancy(
        n_ops=800,
        blocks_per_plane=blocks_per_plane,
        runner=runner,
    )
    bw_read, bw_write = _direct_bw_ratios(blocks_per_plane, n_ops=1000)

    kv_cpu = fig2["kvssd.cpu_us_per_op"]
    return HEADLINE.result({
        "cpu_reduction_vs_rocksdb": fig2["rocksdb.cpu_us_per_op"] / kv_cpu,
        "cpu_reduction_vs_aerospike": fig2["aerospike.cpu_us_per_op"] / kv_cpu,
        "bw_ratio_4k_rand_read": bw_read,
        "bw_ratio_4k_rand_write": bw_write,
        "latency_ratio_read_qd1": fig4[f"ratio.{4 * KIB}.qd1.read"],
        "latency_ratio_write_qd1": fig4[f"ratio.{4 * KIB}.qd1.write"],
        "latency_ratio_read_high_occupancy": (
            fig3["kv.high.read_us"] / fig3["block.high.read_us"]
        ),
        "e2e_insert_gain_vs_rocksdb": fig2["rocksdb_over_kv.insert"],
        "e2e_update_gain_vs_aerospike": fig2["aerospike_over_kv.update"],
        "max_kvps_full_scale": (
            3.84e12 * INDEX_REGION_FRACTION / INDEX_SLOT_BYTES
        ),
    })
