"""Tests for the YCSB sweep cells (workload-by-system grid)."""

import pytest

from repro.errors import WorkloadError
from repro.exec.runner import SweepRunner
from repro.kvbench.ycsb_sweep import (
    YCSB_SYSTEMS,
    YCSB_WORKLOADS,
    run_ycsb_sweep,
    ycsb_cell,
)


def test_sweep_covers_the_full_grid_with_unique_labels():
    class Capture(SweepRunner):
        def run(self, spec):
            self.spec = spec
            return [{"mean_us": 1.0}] * len(spec.points)

    runner = Capture(cache=False)
    result = run_ycsb_sweep(runner=runner)
    labels = [point.label for point in runner.spec.points]
    assert len(labels) == len(YCSB_WORKLOADS) * len(YCSB_SYSTEMS)
    assert len(set(labels)) == len(labels)
    assert labels[0] == "A/kv" and labels[-1] == "F/lsm"
    assert result.axes == {"workload": YCSB_WORKLOADS,
                           "system": tuple(YCSB_SYSTEMS)}
    assert [name for name in result.values if name.endswith(".mean_us")] == [
        f"{workload}.{system}.mean_us"
        for workload in YCSB_WORKLOADS for system in YCSB_SYSTEMS
    ]


def test_cell_measures_one_pair():
    cell = ycsb_cell("C", "kv", n_ops=80, population=400)
    assert cell["completed"] == 80 and cell["failed"] == 0
    assert 0 < cell["mean_us"] <= cell["p99_us"]
    assert cell["throughput_kops"] > 0


def test_cell_rejects_unknown_system():
    with pytest.raises(WorkloadError, match="unknown system"):
        ycsb_cell("A", "optane", n_ops=10, population=10)


def test_sweep_assembles_by_workload_and_system(tmp_path):
    runner = SweepRunner(workers=2, cache=True, cache_dir=str(tmp_path))
    result = run_ycsb_sweep(
        workloads=("A", "E"), n_ops=60, population=300, runner=runner
    )
    assert result.axes == {"workload": ("A", "E"), "system": ("kv", "lsm")}
    # Scans already dominate at small scale: E's KV/LSM gap exceeds A's.
    assert result["E.ratio"] > result["A.ratio"]
    assert result["A.ratio"] == result["A.kv.mean_us"] / result["A.lsm.mean_us"]
    # Cached re-run serves every cell from disk with identical results.
    again = run_ycsb_sweep(
        workloads=("A", "E"), n_ops=60, population=300, runner=runner
    )
    assert runner.last_report.hits == 4
    assert again.values == result.values
