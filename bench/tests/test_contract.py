"""The output contract: schema against BENCHMARK.json, names, limits."""

import json
import re

import pytest

from bench.tests.conftest import REPO_ROOT, SCALE, bench, result_of

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_is_the_catalog_written_out(manifest):
    from bench.catalog import manifest as from_catalog

    assert manifest == from_catalog()


def test_manifest_limits(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names)), "every name is used once"
    for name in names:
        assert NAME.match(name), name
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert len((REPO_ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_host_and_sim_names_say_which(manifest):
    from bench.catalog import END_TO_END

    for name, unit, _better, _bound, kind in END_TO_END:
        if kind == "sim":
            assert name.startswith("sim_") and unit.endswith("_sim"), name
        else:
            assert not name.startswith("sim_") and not unit.endswith("_sim"), name


@pytest.mark.parametrize("workload", [
    "kv_mixed", "kv_gc_writes", "host_stacks", "frontend_rates", "cluster_rebalance",
])
def test_untraced_output_matches_the_manifest(manifest, workload):
    result = result_of(bench(
        "--workload", workload, "--seed", "1", "--seconds", "15",
        "--scale", SCALE, "--trace", "0",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], float) and entry["value"] > 0, name


def test_traced_output_matches_the_manifest(manifest):
    process = bench(
        "--workload", "kv_gc_writes", "--seed", "1", "--seconds", "15",
        "--scale", SCALE, "--trace", "1",
    )
    result = result_of(process)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["flash.host_self_s"] > 0 and values["ftl.gc_runs"] >= 0
    assert values["hostkv.host_self_s"] == 0, "kv workloads bypass hostkv"
    assert values["trace.host_overhead_ratio"] > 1
    detail = json.loads(
        (REPO_ROOT / "bench" / "out" / "kv_gc_writes.layers.json").read_text()
    )
    assert detail["edges"] and detail["sim_phase_breakdown"]
    trace = json.loads(
        (REPO_ROOT / "bench" / "out" / "kv_gc_writes.trace.json").read_text()
    )
    assert trace["traceEvents"]


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, exit non-zero, print no
    result line."""
    import shutil
    import subprocess
    import sys

    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        REPO_ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    process = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "kv_mixed", "--seed", "1",
         "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert process.returncode != 0
    assert '"metrics"' not in process.stdout
