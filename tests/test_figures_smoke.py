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
    phases = [result[f"kvssd.rand.{phase}_us"]
              for phase in ("insert", "update", "read")]
    assert all(value > 0 for value in phases)
    # Hash indexing: no sequential advantage.
    assert 0.8 < result["kvssd.seq_over_rand.insert"] < 1.25


def test_fig4_single_cell():
    result = figure_result("fig4")
    assert 1.5 < result[f"ratio.{4 * KIB}.qd1.write"] < 4.0  # the paper's ~2.5x zone
    assert result[f"kv.{4 * KIB}.qd1.write_us"] > 0


def test_fig5_boundary_pair():
    result = figure_result("fig5")
    assert result[f"kv.{24 * KIB}.fragments"] == 1
    assert result[f"kv.{25 * KIB}.fragments"] == 3
    assert result[f"kv.{25 * KIB}.mib_s"] < result[f"kv.{24 * KIB}.mib_s"]


def test_fig7_three_sizes():
    result = figure_result("fig7")
    assert result["kvssd.50.sa"] > 10.0
    assert result["kvssd.4096.sa"] < 1.05
    assert result["aerospike.50.sa"] < 2.0
    assert result["rocksdb.sa"] == pytest.approx(1.0 + 1.0 / 9.0)
    assert 2.8e9 < result["max_kvps_full_scale"] < 3.4e9


def test_fig6_golden_foreground_gc_shape():
    """Golden shape of the Fig. 6 mini run: the fixed-seed experiment
    must keep producing foreground GC on the KV scenario and none on the
    RocksDB-on-block scenario, with the tail ordering that follows.  A
    change here means the GC engine's behavior shifted, not just noise —
    the run is fully deterministic."""
    result = figure_result("fig6")
    assert result["kv-uniform.foreground_gc_runs"] > 0
    assert result["rocksdb-uniform.foreground_gc_runs"] == 0
    assert result["kv-uniform.p99_us"] > result["rocksdb-uniform.p99_us"]
    # GC writes amplify the KV scenario; the TRIM-heavy block scenario
    # collects nothing at this scale.
    assert result["kv-uniform.waf"] > 1.1
    assert result["rocksdb-uniform.waf"] == pytest.approx(1.0)
    assert result["kv-uniform.gc_moved_mib"] > 0.0


def test_fig8_cliff_minimal():
    result = figure_result("fig8")
    assert result["commands.k16"] == 1
    assert result["commands.k24"] == 2
    assert result["async.k24.mib_s"] < result["async.k16.mib_s"]


def test_fig_replay_rotation_shape():
    """Both devices replay the identical churn trace to completion, and
    the rotating working set never costs less than the static control
    (the whole hot set is cold right after every rotation)."""
    result = figure_result("fig_replay_rotation")
    for device in ("kv", "block"):
        for rotate in (0, 64):
            assert result[f"{device}.rot{rotate}.completed"] == 200
            assert result[f"{device}.rot{rotate}.mean_us"] > 0
        assert result[f"{device}.rotation_penalty"] >= 1.0


def test_fig_replay_mix_shape():
    """The TTL+scan variant must actually exercise the new machinery:
    expiry deletes land, prefix scans run through the iterator buckets,
    and the read tail inflates over the plain point-op baseline."""
    result = figure_result("fig_replay_mix")
    assert result["plain.deletes"] == result["plain.scans"] == 0
    assert result["ttl+scan.deletes"] > 0 and result["ttl+scan.scans"] > 0
    assert result["ttl+scan.failed"] == 0
    assert result["tail_inflation.ttl+scan"] > 1.0
    assert result["ttl+scan.bucket_keys"] > 0


def test_fig_frontend_knee_shape():
    """The serving-frontend mini sweep must show the open-loop story:
    a saturation knee between the plateau load and the overload point,
    with pre-submit queueing absorbing most of the added lat-class tail
    (per the request timestamp trails)."""
    result = figure_result("fig_frontend")
    low, high = result.axes["load"]
    assert result["knee_kops"] == high
    assert result[f"lat.{high:g}k.p99_us"] > result[f"lat.{low:g}k.p99_us"]
    assert result["lat.queueing_share_at_knee"] >= 0.8
    # Overload cannot push completed throughput past device capacity.
    assert result[f"throughput.{high:g}k"] < high
