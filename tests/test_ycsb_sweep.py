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
            return [None] * len(spec.points)

    runner = Capture(cache=False)
    table = run_ycsb_sweep(runner=runner).cells
    labels = [point.label for point in runner.spec.points]
    assert len(labels) == len(YCSB_WORKLOADS) * len(YCSB_SYSTEMS)
    assert len(set(labels)) == len(labels)
    assert labels[0] == "A/kv" and labels[-1] == "F/lsm"
    assert list(table) == list(YCSB_WORKLOADS)
    assert all(list(row) == list(YCSB_SYSTEMS) for row in table.values())


def test_cell_measures_one_pair():
    cell = ycsb_cell("C", "kv", n_ops=80, population=400)
    assert cell.workload == "C" and cell.system == "kv"
    assert cell.completed_ops == 80 and cell.failed_ops == 0
    assert 0 < cell.mean_us <= cell.p99_us
    assert cell.throughput_kops > 0


def test_cell_rejects_unknown_system():
    with pytest.raises(WorkloadError, match="unknown system"):
        ycsb_cell("A", "optane", n_ops=10, population=10)


def test_sweep_assembles_by_workload_and_system(tmp_path):
    runner = SweepRunner(workers=2, cache=True, cache_dir=str(tmp_path))
    table = run_ycsb_sweep(
        workloads=("A", "E"), n_ops=60, population=300, runner=runner
    ).cells
    assert set(table) == {"A", "E"}
    for cells in table.values():
        assert set(cells) == {"kv", "lsm"}
    # Scans already dominate at small scale: E's KV/LSM gap exceeds A's.
    ratio_a = table["A"]["kv"].mean_us / table["A"]["lsm"].mean_us
    ratio_e = table["E"]["kv"].mean_us / table["E"]["lsm"].mean_us
    assert ratio_e > ratio_a
    # Cached re-run serves every cell from disk with identical results.
    again = run_ycsb_sweep(
        workloads=("A", "E"), n_ops=60, population=300, runner=runner
    )
    assert runner.last_report.hits == 4
    assert again.cells == table
