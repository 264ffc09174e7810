#!/usr/bin/env python3
"""Capacity planning with the analytical model (the paper's future work).

The paper's conclusion proposes "an analytical model of KV-SSD
performance that can help researchers generate more representative
workloads".  This example uses :class:`repro.core.model.KVSSDModel` the
way a deployment engineer would: given an object-size mix, predict space
amplification, the device's pair limit, and latency/throughput at low and
high occupancy — including the full-scale 3.84 TB drive the paper
measured, with no simulation required.

Run:  python examples/capacity_planning.py
"""

from repro.core.experiment import lab_geometry
from repro.core.model import KVSSDModel
from repro.kvbench.report import format_table
from repro.units import KIB

#: An object mix inspired by the paper's citations: mostly tiny records
#: (Facebook's 57-154 B averages) plus some page-sized and large blobs.
WORKLOAD_MIX = [
    ("session token", 16, 64, 0.30),
    ("telemetry record", 16, 140, 0.40),
    ("thumbnail", 16, 4 * KIB, 0.20),
    ("document", 16, 24 * KIB, 0.08),
    ("media segment", 16, 60 * KIB, 0.02),
]


def main() -> None:
    model = KVSSDModel(lab_geometry())

    print("per-object-class predictions (empty device):\n")
    rows = []
    for name, key_bytes, value_bytes, share in WORKLOAD_MIX:
        rows.append([
            name,
            f"{value_bytes}B",
            f"{share:.0%}",
            model.space_amplification(key_bytes, value_bytes),
            model.store_latency_us(key_bytes, value_bytes),
            model.retrieve_latency_us(key_bytes, value_bytes),
            model.store_throughput_kops(key_bytes, value_bytes),
        ])
    print(format_table(
        ["class", "value", "share", "space amp", "store us",
         "retrieve us", "store kops"],
        rows,
    ))

    # Blended space amplification for the mix.
    blended_app = sum(
        share * (key_bytes + value_bytes)
        for _n, key_bytes, value_bytes, share in WORKLOAD_MIX
    )
    blended_device = sum(
        share * (key_bytes + value_bytes)
        * model.space_amplification(key_bytes, value_bytes)
        for _n, key_bytes, value_bytes, share in WORKLOAD_MIX
    )
    print("\nblended space amplification of the mix: "
          f"{blended_device / blended_app:.2f}x")

    # Occupancy planning: how much latency headroom is left near the limit?
    limit = model.max_kvps()
    rows = []
    for fraction in (0.1, 0.5, 0.9):
        kvps = int(limit * fraction)
        rows.append([
            f"{fraction:.0%} of limit",
            f"{kvps:,}",
            model.resident_fraction(kvps),
            model.store_latency_us(16, 140, kvps),
            model.retrieve_latency_us(16, 140, kvps),
        ])
    print("\noccupancy headroom (140 B telemetry records):\n")
    print(format_table(
        ["fill", "pairs", "index resident", "store us", "retrieve us"],
        rows,
    ))

    full_scale = model.max_kvps_at_capacity(3.84e12)
    print("\nfull-scale extrapolation: a 3.84 TB drive tops out at "
          f"~{full_scale / 1e9:.2f} billion pairs (paper observed ~3.1 B).")
    print("plan for <=50% of the pair limit if the workload is tiny-record "
          "write-heavy: past the index-DRAM knee, store latency grows "
          f"{model.store_latency_us(16, 140, int(limit * 0.9)) / model.store_latency_us(16, 140, 0):.0f}x.")


if __name__ == "__main__":
    main()
