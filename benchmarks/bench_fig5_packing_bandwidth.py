"""Fig. 5 — write bandwidth vs value size (the packing zig-zag).

Paper setup: sustained stores sweeping the value size across the flash
page boundary; device bandwidth is sampled per size.

Paper findings this bench checks:
* the block device's bandwidth is smooth in value size;
* the KV-SSD's bandwidth rises toward ~24 KiB (a page's usable blob
  area), then drops sharply at 25 KiB and again at 49 KiB, where blobs
  start needing one more fragment plus offset management — the paper's
  evidence for 32 KiB pages holding up to 24 KiB of value.
"""

from conftest import run_experiment

from repro.units import KIB


def test_fig5_packing_bandwidth(benchmark):
    result = run_experiment(
        benchmark, "fig5", "Fig. 5 — write bandwidth vs value size (MiB/s)",
        n_ops=800,
    )
    print("paper: KV-SSD dips at 25 KiB and 49 KiB (page-boundary "
          "splitting); block-SSD smooth")

    kv = result.kv_mib_s
    block = result.block_mib_s
    # The KV zig-zag: bandwidth collapses right past the 24 KiB boundary...
    assert kv[25 * KIB] < 0.6 * kv[24 * KIB]
    # ...partially recovers toward 48 KiB...
    assert kv[48 * KIB] > 1.2 * kv[25 * KIB]
    # ...and dips again at 49 KiB.
    assert kv[49 * KIB] < 0.8 * kv[48 * KIB]
    # The block device is smooth: adjacent sizes within 15%.
    sizes = result.value_sizes
    for left, right in zip(sizes, sizes[1:]):
        assert abs(block[right] - block[left]) / block[left] < 0.15
    # Fragment counts explain the dips.
    assert result.kv_fragments[24 * KIB] == 1
    assert result.kv_fragments[25 * KIB] == 3   # 2 data + 1 offset page
    assert result.kv_fragments[49 * KIB] == 5   # 3 data + 2 offset pages
