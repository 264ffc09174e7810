"""Headline scalars — the paper's abstract/introduction numbers.

One bench collecting every summary number the paper leads with, measured
on the simulated stacks (Sec. I / Sec. IV).  Shape, not absolute
microseconds, is the reproduction target; the table prints paper-reported
vs measured side by side.
"""

from conftest import run_experiment


def test_headline_scalars(benchmark):
    result = run_experiment(
        benchmark, "headline", "Headline scalars (paper vs measured)"
    )

    # Direction-of-effect assertions for every headline claim.
    assert result.cpu_reduction_vs_rocksdb > 5.0
    assert result.cpu_reduction_vs_aerospike < result.cpu_reduction_vs_rocksdb
    assert result.bw_ratio_4k_rand_read < 1.0
    assert result.bw_ratio_4k_rand_write < 1.0
    assert 1.3 < result.latency_ratio_read_qd1 < 2.5
    assert 1.8 < result.latency_ratio_write_qd1 < 4.0
    assert result.latency_ratio_read_high_occupancy > (
        result.latency_ratio_read_qd1
    )
    assert result.e2e_insert_gain_vs_rocksdb > 2.0
    assert result.e2e_update_gain_vs_aerospike > 1.2
    assert 2.8e9 < result.max_kvps_full_scale < 3.4e9
