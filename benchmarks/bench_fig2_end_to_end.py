"""Fig. 2 — end-to-end I/O latency: KV-SSD vs RocksDB vs Aerospike.

Paper setup: 10 M asynchronous operations of 16 B keys / 4 KiB values per
(system, pattern, phase) cell on a 3.84 TB device.  Scaled here to 2,500
operations per cell on a ~2 GiB device at queue depth 8.

Paper findings this bench checks:
* sequential access buys the KV-SSD nothing (hash-ordered indexing);
* KV-SSD beats RocksDB for inserts and updates, loses on reads;
* KV-SSD beats Aerospike only for updates (roughly parity on inserts);
* host CPU per op: KV stack far below RocksDB (the ~13x of RQ1).
"""

from conftest import banner, run_experiment

from repro.kvbench.report import format_table

N_OPS = 2500


def test_fig2_end_to_end(benchmark):
    result = run_experiment(
        benchmark, "fig2",
        "Fig. 2 — end-to-end latency (us), async QD8, 16B/4KiB", n_ops=N_OPS,
    )

    print(banner("Fig. 2 — derived comparisons (paper vs measured)"))
    print(format_table(
        ["comparison", "paper", "measured"],
        [
            ["KV seq/rand insert latency", "~1.0 (no seq benefit)",
             result.latency_us["kvssd"]["seq"]["insert"]
             / result.latency_us["kvssd"]["rand"]["insert"]],
            ["RocksDB/KV insert (rand)", "KV wins, up to 23.08x",
             result.ratio("rocksdb", "kvssd", "rand", "insert")],
            ["RocksDB/KV update (rand)", "KV wins",
             result.ratio("rocksdb", "kvssd", "rand", "update")],
            ["KV/RocksDB read (rand)", "KV suffers (>1)",
             result.ratio("kvssd", "rocksdb", "rand", "read")],
            ["Aerospike/KV update (rand)", "KV wins, up to 3.64x",
             result.ratio("aerospike", "kvssd", "rand", "update")],
            ["KV/Aerospike insert (rand)", ">=1 (AS at least matches)",
             result.ratio("kvssd", "aerospike", "rand", "insert")],
            ["RocksDB/KV host CPU per op", "~13x",
             result.cpu_us_per_op["rocksdb"] / result.cpu_us_per_op["kvssd"]],
        ],
    ))

    # Shape assertions: who wins, per the paper.
    assert result.ratio("rocksdb", "kvssd", "rand", "insert") > 2.0
    assert result.ratio("rocksdb", "kvssd", "rand", "update") > 2.0
    assert result.ratio("kvssd", "rocksdb", "rand", "read") > 1.2
    assert result.ratio("aerospike", "kvssd", "rand", "update") > 1.2
    seq_over_rand = (
        result.latency_us["kvssd"]["seq"]["insert"]
        / result.latency_us["kvssd"]["rand"]["insert"]
    )
    assert 0.8 < seq_over_rand < 1.25
