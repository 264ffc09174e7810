"""Smoke tests for the figure experiments at miniature scale.

``tests/test_paper_claims.py`` checks the paper's findings at each row's
recorded scale; these tests assert the *shape* of the ``mini`` runs declared in
``repro.core.registry.EXPERIMENTS`` — the same memoized results the golden
suite diffs, so each mini figure executes once per session no matter how
many suites consume it.
"""

import pytest

from repro.units import KIB
from tests.conftest import figure_result


def test_fig2_minimal():
    result = figure_result("fig2")
    phases = result.latency_us["kvssd"]["rand"]
    assert set(phases) == {"insert", "update", "read"}
    assert all(value > 0 for value in phases.values())
    # Hash indexing: no sequential advantage.
    ratio = (
        result.latency_us["kvssd"]["seq"]["insert"]
        / result.latency_us["kvssd"]["rand"]["insert"]
    )
    assert 0.8 < ratio < 1.25


def test_fig4_single_cell():
    result = figure_result("fig4")
    ratio = result.ratio["write"][1][4 * KIB]
    assert 1.5 < ratio < 4.0  # the paper's ~2.5x zone
    assert result.latency_us["kv"]["write"][1][4 * KIB] > 0


def test_fig5_boundary_pair():
    result = figure_result("fig5")
    assert result.kv_fragments[24 * KIB] == 1
    assert result.kv_fragments[25 * KIB] == 3
    assert result.kv_mib_s[25 * KIB] < result.kv_mib_s[24 * KIB]


def test_fig7_three_sizes():
    result = figure_result("fig7")
    assert result.sa["kvssd"][50] > 10.0
    assert result.sa["kvssd"][4096] < 1.05
    assert result.sa["aerospike"][50] < 2.0
    assert result.sa["rocksdb"][50] == pytest.approx(1.0 + 1.0 / 9.0)
    assert 2.8e9 < result.max_kvps_full_scale < 3.4e9


def test_fig6_golden_foreground_gc_shape():
    """Golden shape of the Fig. 6 mini run: the fixed-seed experiment
    must keep producing foreground GC on the KV scenario and none on the
    RocksDB-on-block scenario, with the tail ordering that follows.  A
    change here means the GC engine's behavior shifted, not just noise —
    the run is fully deterministic."""
    result = figure_result("fig6")
    assert result.foreground_gc_runs["kv-uniform"] > 0
    assert result.foreground_gc_runs["rocksdb-uniform"] == 0
    kv_p99 = result.latency_summary["kv-uniform"]["p99"]
    rocksdb_p99 = result.latency_summary["rocksdb-uniform"]["p99"]
    assert kv_p99 > rocksdb_p99
    # GC writes amplify the KV scenario; the TRIM-heavy block scenario
    # collects nothing at this scale.
    assert result.stats_summary["kv-uniform"]["waf"] > 1.1
    assert result.stats_summary["rocksdb-uniform"]["waf"] == pytest.approx(1.0)
    assert result.stats_summary["kv-uniform"]["gc_moved_mib"] > 0.0


def test_fig8_cliff_minimal():
    result = figure_result("fig8")
    assert result.commands[16] == 1
    assert result.commands[24] == 2
    assert result.mib_s["async"][24] < result.mib_s["async"][16]


def test_fig_replay_rotation_shape():
    """Both devices replay the identical churn trace to completion, and
    the rotating working set never costs less than the static control
    (the whole hot set is cold right after every rotation)."""
    result = figure_result("fig_replay_rotation")
    for device in ("kv", "block"):
        for rotate, cell in result.latency_us[device].items():
            assert result.completed_ops[device][rotate] == 200
            assert cell["mean"] > 0
        assert result.rotation_penalty(device) >= 1.0


def test_fig_replay_mix_shape():
    """The TTL+scan variant must actually exercise the new machinery:
    expiry deletes land, prefix scans run through the iterator buckets,
    and the read tail inflates over the plain point-op baseline."""
    result = figure_result("fig_replay_mix")
    plain, mixed = result.ops["plain"], result.ops["ttl+scan"]
    assert plain["deletes"] == plain["scans"] == 0
    assert mixed["deletes"] > 0 and mixed["scans"] > 0
    assert mixed["failed"] == 0
    assert result.tail_inflation("ttl+scan") > 1.0
    assert result.buckets["ttl+scan"]["keys"] > 0


def test_fig_frontend_knee_shape():
    """The serving-frontend mini sweep must show the open-loop story:
    a saturation knee between the plateau load and the overload point,
    with pre-submit queueing absorbing most of the added lat-class tail
    (per the request timestamp trails)."""
    result = figure_result("fig_frontend")
    low, high = result.loads_kops
    assert result.knee_kops() == high
    assert result.p99["lat"][high] > result.p99["lat"][low]
    assert result.queueing_share("lat", high) >= 0.8
    # Overload cannot push completed throughput past device capacity.
    assert result.throughput_kops[high] < high
