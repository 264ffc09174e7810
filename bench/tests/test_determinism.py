"""Simulated metrics repeat exactly; the seed reaches the program."""

import json

from bench.tests.conftest import SCALE, bench


def _report(tmp_path, workload: str, seed: str, hashseed: str) -> dict:
    out = tmp_path / f"{workload}.{seed}.{hashseed}.json"
    process = bench(
        "run", "--workload", workload, "--seed", seed, "--scale", SCALE,
        "--out", str(out), hashseed=hashseed,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(out.read_text())


def test_sim_metrics_identical_across_processes_and_hash_seeds(tmp_path):
    for workload in ("host_stacks", "cluster_rebalance"):
        first = _report(tmp_path, workload, "1", "0")
        second = _report(tmp_path, workload, "1", "12345")
        assert first["sim_digest"] == second["sim_digest"], workload
        assert first["exact"] == second["exact"], workload
        for name in ("sim_kops", "sim_mean_us", "sim_p99_us"):
            assert first["metrics"][name] == second["metrics"][name]


def test_a_different_seed_changes_the_digest(tmp_path):
    first = _report(tmp_path, "kv_mixed", "1", "0")
    second = _report(tmp_path, "kv_mixed", "2", "0")
    assert first["sim_digest"] != second["sim_digest"]
