"""Machine-free work pins: for each benchmark workload, one small cell
whose Python calls per package (``work.calls.<cell>``) and engine events
and ops (``identity.cells.<cell>``) stand for the workload's host work.

The ``kv``, ``kv_gc`` and ``block`` cells are pinned in
``tests/test_trace.py``; the serving frontend and the cluster reuse the
sanitizer targets of ``tests/fixtures/sanitizer_targets.py`` here.
"""

import json

from repro.cluster.router import build_plan
from repro.cluster.run import run_cluster
from repro.sim.engine import observe
from tests.conftest import LEDGER, call_ledger
from tests.fixtures import sanitizer_targets

#: Benchmark workload -> the cell that stands for it (CI's benchmark
#: report prints each cell's pinned calls per op beside the workload).
STAND_INS = {
    "kv_mixed": "kv",
    "kv_gc_writes": "kv_gc",
    "host_stacks": "block",  # its direct-I/O half
    "frontend_rates": "frontend_cell",
    "cluster_rebalance": "cluster_cell",
}


def _pin_cell(pin, cell, ops, events, calls):
    pin(f"identity.cells.{cell}", {"ops": ops, "events": events})
    pin(f"work.calls.{cell}", {"total": sum(calls.values()), **calls})


def test_every_benchmark_workload_has_a_pinned_stand_in():
    workloads = json.loads((LEDGER.parent / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(STAND_INS) == sorted(w["name"] for w in workloads)
    ledger = json.loads(LEDGER.read_text())
    for cell in STAND_INS.values():
        assert ledger["identity"]["cells"][cell]["ops"] > 0, cell
        assert ledger["identity"]["cells"][cell]["events"] > 0, cell
        assert ledger["work"]["calls"][cell]["total"] > 0, cell


def test_frontend_cell_stays_within_its_ledger(pin):
    """Both rates of the sanitizer's frontend cell; an op is a completed
    request, as ``frontend_rates`` counts it."""
    observation, calls = call_ledger(lambda: observe(sanitizer_targets.frontend_cell))
    ops = sum(row[3] for row in observation.value)
    _pin_cell(pin, "frontend_cell", ops, observation.events, calls)


def test_cluster_cell_stays_within_its_ledger(pin):
    """The sanitizer's cluster cell, planned inside the window (the plan
    memo outlives tests); an op is a completed shard op, as
    ``cluster_rebalance`` counts it."""
    build_plan.cache_clear()
    observation, calls = call_ledger(lambda: observe(sanitizer_targets.cluster_cell))
    ops = run_cluster(sanitizer_targets._cluster_spec()).completed_ops
    _pin_cell(pin, "cluster_cell", ops, observation.events, calls)
