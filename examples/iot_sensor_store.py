#!/usr/bin/env python3
"""IoT sensor store: the paper's motivating embedded scenario.

The introduction motivates KV-SSDs with resource-limited embedded systems
(automotive, smart home, IoT) that run embedded KV stores over block
storage and pay redundant mapping overheads in CPU and memory.

This example plays a sensor-logging workload — small telemetry records,
insert-heavy with periodic reads — against two stacks:

* KV-SSD through the SNIA KVS API (the paper's proposal), and
* an LSM-tree store on ext4 on a block SSD (the incumbent),

then prints the trade the paper's conclusion describes: the KV-SSD frees
the small CPU (RQ1's ~13x) and speeds up ingestion, but pays space
amplification for tiny records (Fig. 7's caveat).

Run:  python examples/iot_sensor_store.py
"""

from repro.core.experiment import build_kv_rig, build_lsm_rig, lab_geometry
from repro.hostkv.lsm.store import LSMConfig
from repro.kvbench.report import format_table
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import Pattern, WorkloadSpec, generate_operations
from repro.kvftl.population import KeyScheme
from repro.units import KIB, MIB

#: Telemetry record: ~140 B payload (the Facebook-range sizes the paper
#: cites: real KV deployments average 57-154 B).
SENSOR_VALUE_BYTES = 140
N_READINGS = 12000
#: Keys like b"sens-000000000042" (16 B, the paper's key size).
SENSOR_SCHEME = KeyScheme(prefix=b"sens", digits=12)


def run_stack(name, rig, adapter):
    ingest = WorkloadSpec(
        n_ops=N_READINGS,
        op="insert",
        pattern=Pattern.SEQUENTIAL,  # time-ordered sensor readings
        key_scheme=SENSOR_SCHEME,
        value_bytes=SENSOR_VALUE_BYTES,
        seed=5,
    )
    ingest_run = execute_workload(
        rig.env, adapter, generate_operations(ingest), queue_depth=4,
        name=f"{name}.ingest",
    )
    rig.drain()
    lookups = WorkloadSpec(
        n_ops=N_READINGS // 4,
        op="read",
        pattern=Pattern.ZIPFIAN,  # dashboards poll recent/hot sensors
        population=N_READINGS,
        key_scheme=SENSOR_SCHEME,
        value_bytes=SENSOR_VALUE_BYTES,
        seed=7,
    )
    lookup_run = execute_workload(
        rig.env, adapter, generate_operations(lookups), queue_depth=4,
        name=f"{name}.lookup",
    )
    cpu_per_op = rig.cpu.total_busy_us / (
        ingest_run.completed_ops + lookup_run.completed_ops
    )
    return ingest_run, lookup_run, cpu_per_op


def main() -> None:
    geometry = lab_geometry(16)

    kv_rig = build_kv_rig(geometry)
    kv_ingest, kv_lookup, kv_cpu = run_stack("kv", kv_rig, kv_rig.adapter)

    # Embedded-class RocksDB configuration: a small memtable (the paper
    # reconfigured its host down to 6 GB DRAM for macro experiments).
    lsm_rig = build_lsm_rig(
        geometry,
        lsm_config=LSMConfig(
            memtable_bytes=256 * KIB,
            level_base_bytes=1 * MIB,
            sst_target_bytes=256 * KIB,
        ),
    )
    lsm_ingest, lsm_lookup, lsm_cpu = run_stack(
        "lsm", lsm_rig, lsm_rig.adapter
    )

    print("IoT sensor logging: %d x %dB readings + hot lookups\n"
          % (N_READINGS, SENSOR_VALUE_BYTES))
    print(format_table(
        ["metric", "KV-SSD", "RocksDB-on-block"],
        [
            ["ingest latency (us, mean)",
             kv_ingest.latency.mean(), lsm_ingest.latency.mean()],
            ["ingest p99 (us)",
             kv_ingest.latency.summary().p99,
             lsm_ingest.latency.summary().p99],
            ["lookup latency (us, mean)",
             kv_lookup.latency.mean(), lsm_lookup.latency.mean()],
            ["host CPU per op (us)", kv_cpu, lsm_cpu],
        ],
    ))

    kv_sa = kv_rig.device.stats.amplification()
    print("\nthe trade (paper Sec. V): the KV-SSD frees the embedded CPU "
          f"({lsm_cpu / kv_cpu:.1f}x less host CPU; tail ingest "
          f"{lsm_ingest.latency.summary().p99 / kv_ingest.latency.summary().p99:.1f}x "
          f"calmer at p99), but pads each {SENSOR_VALUE_BYTES} B record to "
          f"1 KiB -> space amplification {kv_sa:.1f}x.")
    print("for write-heavy, tiny-record fleets, consider batching readings "
          "into >=1 KiB values before storing.")


if __name__ == "__main__":
    main()
