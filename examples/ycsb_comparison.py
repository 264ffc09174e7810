#!/usr/bin/env python3
"""YCSB core workloads on KV-SSD vs RocksDB — the paper's future work.

The paper excluded YCSB only because no engine interfaced it with the
KV-SSD at the time, and its conclusion names YCSB exploration as future
work.  Here the simulated stacks play all six core workloads directly.

Watch workload E: a hash-indexed device has no ordered iteration (only
4-byte-prefix buckets), so scans emulate ordered ranges with point reads
— the LSM tree's one decisive win, invisible in the paper's figure set.

Run:  python examples/ycsb_comparison.py
"""

from repro.core.experiment import build_kv_rig, build_lsm_rig, lab_geometry
from repro.kvbench.report import format_table
from repro.kvbench.runner import execute_workload
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec, generate_ycsb
from repro.kvftl.population import KeyScheme

POPULATION = 5000
N_OPS = 1200
WORKLOADS = ("A", "B", "C", "D", "E", "F")
SCHEME = KeyScheme(prefix=b"user", digits=12)


def run_kv(spec):
    with build_kv_rig(lab_geometry(8)) as rig:
        rig.device.fast_fill(spec.population, spec.value_bytes, spec.key_scheme)
        driver = YCSBDriver(rig.adapter, spec)
        result = execute_workload(
            rig.env, driver, generate_ycsb(spec), queue_depth=8,
            name=f"ycsb{spec.workload}.kv",
        )
        return result.latency.mean()


def run_lsm(spec):
    with build_lsm_rig(lab_geometry(8)) as rig:
        entries = {
            spec.key_scheme.key_for(i): spec.value_bytes
            for i in range(spec.population)
        }
        rig.store.prime_fill(entries, level=3)
        driver = YCSBDriver(rig.adapter, spec)
        result = execute_workload(
            rig.env, driver, generate_ycsb(spec), queue_depth=8,
            name=f"ycsb{spec.workload}.lsm",
        )
        return result.latency.mean()


def main() -> None:
    rows = []
    for workload in WORKLOADS:
        spec = YCSBSpec(
            workload=workload,
            n_ops=N_OPS,
            population=POPULATION,
            key_scheme=SCHEME,
            value_bytes=1000,
            scan_length=20,
        )
        kv_latency = run_kv(spec)
        lsm_latency = run_lsm(spec)
        rows.append([
            workload, kv_latency, lsm_latency, kv_latency / lsm_latency,
        ])

    print(f"YCSB core workloads, {POPULATION:,} x 1 KB records, "
          f"{N_OPS} ops each, QD8\n")
    print(format_table(
        ["workload", "KV-SSD us", "RocksDB us", "KV/RocksDB"], rows
    ))
    print("\nA=50/50 rw  B=95/5  C=read-only  D=read-latest  "
          "E=scans  F=read-modify-write")
    print("expected shape: KV-SSD competitive on update-heavy point "
          "workloads (A, F), behind on read-heavy ones (B, C, D — the "
          "paper's Fig. 2c), and far behind on scans (E) where the hash "
          "index has no order to exploit.")


if __name__ == "__main__":
    main()
