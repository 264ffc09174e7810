"""Fig. 4 — KV/block latency ratio vs value size and concurrency.

Paper setup: 1.53 M direct-access I/Os per value size over a prefilled
device, at queue depths 1 and 64; the plotted metric is mean KV-SSD
latency over mean block-SSD latency (<1 favors KV-SSD).

Paper findings this bench checks:
* QD1: key handling makes the KV-SSD slower (up to 5.4x for large,
  split values; ~2.5x writes / ~1.7x reads at 4 KiB);
* QD64: the KV-SSD's simple packing and full-width striping win for
  values below ~32 KiB (down to 0.86x writes / 0.37x reads);
* at >=32 KiB values, splitting plus offset management flips the ratio
  back above 1 even at QD64 — the crossover the paper highlights.
"""

from conftest import run_experiment

from repro.units import KIB

SIZES = (512, 4 * KIB, 16 * KIB, 32 * KIB, 64 * KIB)


def test_fig4_value_size_concurrency(benchmark):
    result = run_experiment(
        benchmark, "fig4",
        "Fig. 4 — KV/block mean-latency ratio (<1 favors KV-SSD)",
        value_sizes=SIZES, queue_depths=(1, 64), n_ops=1200,
    )
    print("paper: QD1 ratios > 1 (up to 5.4x); QD64 < 1 below ~32 KiB "
          "(0.86x writes / 0.37x reads), > 1 at >=32 KiB")

    # QD1: the KV-SSD pays for key handling at 4 KiB (the 2.5x/1.7x zone).
    assert 1.5 < result.ratio["write"][1][4 * KIB] < 4.0
    assert 1.3 < result.ratio["read"][1][4 * KIB] < 2.5
    # QD64: boon below 32 KiB...
    assert result.ratio["write"][64][4 * KIB] < 1.0
    assert result.ratio["read"][64][4 * KIB] < 1.0
    # ...bane at and beyond 32 KiB.
    assert result.ratio["write"][64][32 * KIB] > 1.0
    assert result.ratio["read"][64][32 * KIB] > 1.0
    # The splitting penalty peaks the QD1 write ratio at large values.
    assert result.ratio["write"][1][32 * KIB] > 2.5
