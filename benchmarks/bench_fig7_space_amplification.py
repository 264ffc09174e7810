"""Fig. 7 — space amplification vs value size, across systems.

Paper setup: fill each system with pairs of one value size; space
amplification = device space consumed / application bytes written.

Paper findings this bench checks:
* KV-SSD: up to ~17-20x for 50 B values (the 1 KiB minimum allocation),
  dropping to ~1 for 1-4 KiB values (tight packing beyond 1 KiB);
* Aerospike on raw block: below 2x even at 50 B (16 B record rounding);
* RocksDB: ~1.11x steady state (leveled obsolescence bound);
* the KVP limit this padding implies: ~3.1 billion pairs on 3.84 TB.
"""

from conftest import run_experiment


def test_fig7_space_amplification(benchmark):
    result = run_experiment(
        benchmark, "fig7",
        "Fig. 7 — space amplification (device bytes / app bytes)",
    )

    # Paper-shape assertions.
    assert 14.0 < result.sa["kvssd"][50] < 21.0        # "up to ~17-20x"
    assert result.sa["kvssd"][1024] < 1.1              # "close to 1"
    assert result.sa["kvssd"][4096] < 1.05
    assert result.sa["aerospike"][50] < 2.0            # "less than 2"
    assert abs(result.sa["rocksdb"][50] - 1.111) < 0.01
    assert 2.8e9 < result.max_kvps_full_scale < 3.4e9  # "~3.1 billion"
    # Measured device accounting matches the analytic blob layout.
    for size in result.value_sizes:
        measured = result.sa["kvssd"][size]
        analytic = result.kv_analytic[size]
        assert abs(measured - analytic) / analytic < 0.02
