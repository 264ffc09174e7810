"""Fig. 8 — device bandwidth vs key size (NVMe command-set cliff).

Paper setup: stores with a fixed value size while sweeping key length,
in both synchronous and asynchronous modes.  A 64 B NVMe command carries
at most 16 B of key inline; longer keys cost a second command.

Paper findings this bench checks:
* bandwidth is flat across key sizes up to 16 B;
* it drops sharply past 16 B — the paper reports large keys reaching as
  low as ~0.53x of the small-key bandwidth — in both modes (the cliff is
  steepest under asynchronous load, where the submission path saturates).
"""

from conftest import run_experiment


def test_fig8_key_size_bandwidth(benchmark):
    result = run_experiment(
        benchmark, "fig8", "Fig. 8 — store bandwidth vs key size (MiB/s)",
        n_ops=1200,
    )

    # Flat up to the inline limit.
    async_bw = result.mib_s["async"]
    assert abs(async_bw[16] - async_bw[8]) / async_bw[8] < 0.1
    # The cliff: a second command halves the submission budget.
    assert result.cliff_ratio("async") < 0.7
    assert result.cliff_ratio("sync") < 0.98
    # Command counts explain it.
    assert result.commands[16] == 1
    assert result.commands[24] == 2
