"""Fig. 3 — I/O latency vs index occupancy.

Paper setup: 1.53 M (low) vs 3 B (high) pairs of 16 B keys / 512 B values
on a 3.84 TB KV-SSD and the same byte volumes of 512 B blocks on its
block-firmware twin; then random reads and writes are measured.

Paper findings this bench checks:
* KV-SSD read latency degrades up to 2x and write latency up to 16.4x as
  the global index outgrows device DRAM;
* the block device stays near-constant (its page map always fits DRAM).

Scaled setup: the same *fractions of the device's KVP limit* on a ~2 GiB
geometry (the knee is set by the DRAM:index ratio, which is preserved).
"""

from conftest import banner, run_experiment

from repro.kvbench.report import format_table


def test_fig3_index_occupancy(benchmark):
    result = run_experiment(
        benchmark, "fig3",
        "Fig. 3 — latency (us) at low vs high index occupancy",
        measured_ops=1500, blocks_per_plane=16,
    )

    print(banner("Fig. 3 — degradation high/low (paper vs measured)"))
    print(format_table(
        ["metric", "paper", "measured"],
        [
            ["KV write degradation", "up to 16.4x",
             result.degradation("kv", "write")],
            ["KV read degradation", "up to 2x",
             result.degradation("kv", "read")],
            ["block write degradation", "~1x (near-constant)",
             result.degradation("block", "write")],
            ["block read degradation", "~1x (near-constant)",
             result.degradation("block", "read")],
        ],
    ))
    print(f"(scaled fills: low={result.low_kvps:,} high={result.high_kvps:,} "
          f"pairs of {result.value_bytes} B values; paper used 1.53M / 3B)")

    assert result.degradation("kv", "write") > 4.0
    assert 1.5 < result.degradation("kv", "read") < 4.0
    assert result.degradation("block", "write") < 1.5
    assert result.degradation("block", "read") < 1.5
