"""Shape tests for the figure experiments at their recorded scale.

``tests/test_paper_claims.py`` checks each row's claims and
``tests/test_golden_figures.py`` pins every value; these tests assert the
structural *shape* of the same memoized runs (``tests/conftest.py``) —
fragment and command counts, which scenarios collect garbage, what
machinery a variant exercises — so each figure still executes once per
session no matter how many suites consume it.
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
    """Golden shape of the Fig. 6 run: the fixed-seed experiment
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
    """Both devices replay the identical churn trace to completion at
    every rotation period, the static control included.  Which way
    rotation moves the tail is the row's claims' business (a 0.9-1.1 band
    on each device's penalty)."""
    result = figure_result("fig_replay_rotation")
    for device in result.axes["device"]:
        for rotate in result.axes["rotate_every"]:
            assert result[f"{device}.rot{rotate}.completed"] == result["n_ops"]
            assert result[f"{device}.rot{rotate}.mean_us"] > 0


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
    """The serving-frontend sweep must show the open-loop story: a
    saturation knee strictly inside the swept loads, a lat-class tail
    that grows from the lightest load to the heaviest, and completed
    throughput below the offered load at every point."""
    result = figure_result("fig_frontend")
    loads = result.axes["load"]
    assert loads[0] < result["knee_kops"] < loads[-1]
    assert (result[f"lat.{loads[-1]:g}k.p99_us"]
            > result[f"lat.{loads[0]:g}k.p99_us"])
    for load in loads:
        assert result[f"throughput.{load:g}k"] < load
