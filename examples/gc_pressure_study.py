#!/usr/bin/env python3
"""GC pressure study: watch a nearly-full KV-SSD collapse under updates.

Reproduces the paper's Fig. 6 mechanism interactively: fill most of a
KV-SSD, then stream random updates and watch bandwidth, foreground GC
activity, and write amplification evolve — the behaviour behind the
paper's advice to "avoid KV-SSD for write-heavy workloads ... if the
drive capacity is almost filled".

Run:  python examples/gc_pressure_study.py
"""

from repro.core.experiment import build_kv_rig, lab_geometry
from repro.kvbench.report import format_table, sparkline
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import Pattern, WorkloadSpec, generate_operations
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.population import KeyScheme
from repro.units import KIB

VALUE_BYTES = 4 * KIB
FILL_FRACTION = 0.8
SCHEME = KeyScheme(prefix=b"fill", digits=12)


def main() -> None:
    with build_kv_rig(lab_geometry(4)) as rig:  # small device -> quick collapse
        device = rig.device

        per_page = blobs_per_page(
            SCHEME.key_bytes, VALUE_BYTES, device.array.geometry.page_bytes,
            device.config,
        )
        fill_blocks = device.free_block_count() - 32
        fill_kvps = int(
            fill_blocks
            * device.array.geometry.pages_per_block
            * per_page
            * FILL_FRACTION
        )
        device.fast_fill(fill_kvps, VALUE_BYTES, SCHEME)
        print(f"filled {fill_kvps:,} pairs "
              f"({device.occupancy_fraction():.0%} of user capacity); "
              f"free blocks: {device.free_block_count()}")

        spec = WorkloadSpec(
            n_ops=int(fill_kvps * 0.6),
            op="update",
            pattern=Pattern.UNIFORM,
            population=fill_kvps,
            key_scheme=SCHEME,
            value_bytes=VALUE_BYTES,
            seed=13,
        )
        before = device.stats.snapshot()
        run = execute_workload(
            rig.env, rig.adapter, generate_operations(spec), queue_depth=16,
            bandwidth_window_us=100_000.0, name="gc-study",
        )
        delta = device.stats.delta(before)

    series = run.bandwidth.series_mib_per_sec()
    print("\nupdate-phase bandwidth over time (MiB/s):")
    print(f"  {sparkline(series)}")
    print(f"  head {series[0]:.0f} -> trough "
          f"{min(s for s in series if s > 0):.0f} MiB/s")

    print("\ndevice counters for the update phase:")
    print(format_table(
        ["counter", "value"],
        [
            ["updates completed", run.completed_ops],
            ["GC runs", delta.gc_runs],
            ["foreground GC runs", delta.foreground_gc_runs],
            ["blocks erased", delta.gc_erased_blocks],
            ["GC-relocated MiB", delta.gc_relocated_bytes / (1024 * 1024)],
            ["write amplification", delta.write_amplification()],
        ],
    ))
    print("\npaper Sec. V: bursty update workloads on a nearly-full KV-SSD "
          "stall behind foreground GC; leave headroom or trim cold pairs.")


if __name__ == "__main__":
    main()
