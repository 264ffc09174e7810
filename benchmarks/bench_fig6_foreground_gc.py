"""Fig. 6 — foreground garbage collection under random updates at 80% fill.

Paper setup: fill 80% of device capacity with 16 B keys / 4 KiB values,
then update every stored key (uniform-random, and the sliding-window
pseudo-random pattern of the paper's footnote 2), watching device
bandwidth over time.

Paper findings this bench checks:
* both KV-SSD update scenarios collapse once over-provisioning runs out —
  updates stall behind foreground GC (bandwidth troughs);
* RocksDB on the block device shows no such collapse: compaction rewrites
  whole files sequentially and TRIMs the old ones, so device GC always
  finds fully dead blocks.
"""

from conftest import run_experiment


def test_fig6_foreground_gc(benchmark):
    result = run_experiment(
        benchmark, "fig6", "Fig. 6 — bandwidth during the update phase",
        blocks_per_plane=4,
    )
    print(f"(fill {result.fill_fraction:.0%}, {result.n_updates:,} updates "
          f"of {result.value_bytes} B values; paper: 80% of 3.84 TB)")

    # Both KV scenarios collapse into foreground GC...
    assert result.foreground_gc_runs["kv-uniform"] > 0
    assert result.foreground_gc_runs["kv-window"] > 0
    assert result.trough_ratio("kv-uniform") < 0.5
    assert result.trough_ratio("kv-window") < 0.5
    # ...while RocksDB on block triggers none.
    assert result.foreground_gc_runs["rocksdb-uniform"] == 0
