"""The allocation ledger: what untimed state costs in host memory.

Beside the call ledger (``tests/conftest.py:call_ledger``), which counts
Python calls, this counts bytes with :mod:`tracemalloc` and structures
with ``len``: the numbers are the same on every machine of one Python
version, so a change that brings back an object per fill page or per
parsed field fails here rather than as a drift in the benchmark's
``host_peak_rss_mib``.  The block page map's tables are ``mmap`` pages,
which :mod:`tracemalloc` does not see: they are bounded by peak RSS in a
fresh interpreter instead.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from typing import Any, Callable, Tuple

import pytest

from repro.cluster.shard import run_shard
from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec
from repro.core.experiment import build_block_rig, build_kv_rig, lab_geometry
from repro.frontend.frontend import run_frontend
from repro.frontend.run import build_load_spec
from repro.faults.model import FaultConfig
from repro.kvbench.runner import execute_workload
from repro.kvbench.traces import (
    TRACE_MAGIC,
    TRACE_VERSION,
    TraceWorkload,
    format_record,
    parse_trace,
    spec_to_records,
)
from repro.kvbench.workload import (
    Operation,
    OpType,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.ftl.core import FtlCore
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.kvftl.population import KeyScheme
from repro.units import MIB

#: The ``kv_mixed`` benchmark's fill: 16 B keys, 4 KiB values.
_SCHEME = KeyScheme(prefix=b"fill", digits=12)

SRC = Path(__file__).resolve().parent.parent / "src"


def alloc_ledger(run: Callable[[], Any]) -> Tuple[Any, int]:
    """``run()``'s result and the bytes it allocated that are still held
    once it returns, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, retained


def test_a_fill_costs_bytes_per_block_written_not_an_object_per_page():
    """800 k pairs at the ``kv_mixed`` geometry: 1.75 B a pair retained
    (21.8 with a manifest tuple per fill page) — the population's two
    32-bit page maps, 8 B a fill page, and one manifest run per block."""
    rig = build_kv_rig(
        lab_geometry(64), config=KVSSDConfig(index_dram_bytes=64 * MIB)
    )
    device = rig.device
    pairs = 800_000
    population, retained = alloc_ledger(
        lambda: device.fast_fill(pairs, 4096, _SCHEME)
    )
    assert retained / pairs <= 4.0
    blocks_written = len(set(population.page_blocks))
    entries = sum(len(manifest) for manifest in device._manifests.values())
    assert entries <= 2 * blocks_written  # 133,334 with one per page
    assert population.page_blocks.itemsize == population.page_indices.itemsize == 4


def _kv_mixed_spec(seed: int) -> WorkloadSpec:
    """The ``kv_mixed`` benchmark's 30,000 uniform 50/50 operations."""
    return WorkloadSpec(
        n_ops=30_000, op="mixed", pattern=Pattern.UNIFORM, population=821_990,
        key_scheme=_SCHEME, value_bytes=4096, read_fraction=0.5, seed=seed,
    )


def _kv_mixed_lines() -> list:
    lines = [f"{TRACE_MAGIC} v{TRACE_VERSION}"]
    lines.extend(format_record(record) for record in spec_to_records(_kv_mixed_spec(3)))
    return lines


def test_a_parsed_trace_record_is_slotted_and_shares_its_op():
    """The ``kv_mixed`` benchmark's 30,000-record export: 169 B a record
    retained (183 line by line, which builds an int per size; 261 with a
    ``__dict__`` and a fresh op string per record)."""
    records, retained = alloc_ledger(lambda: parse_trace(_kv_mixed_lines()))
    assert len(records) == 30_000
    assert retained / len(records) <= 200


def test_a_trace_workload_keeps_columns_not_its_records():
    """The same export replayed: 74 B a record retained — its key and a
    list slot each for it, its shared op string and its shared size —
    once the parsed records are dropped (177 when the workload keeps the
    records, 169 B each)."""
    lines = _kv_mixed_lines()
    workload, retained = alloc_ledger(
        lambda: TraceWorkload(parse_trace(lines), key_scheme=_SCHEME)
    )
    assert workload.n_ops == 30_000
    assert retained / workload.n_ops <= 80


def test_a_stored_pair_is_one_packed_entry():
    """The ``kv_mixed`` cell's phase (seed 1) against its fill: 105 B
    retained per individually stored pair — a dict slot, one packed int,
    a manifest entry of a list slot and 8 bytes of ``array`` — where an
    object graph per pair (a record, its fragment tuple, location list
    and ``(block, page)`` tuple, a 5-tuple manifest entry and an entry in
    a set of overridden primed pairs) retained 484."""
    rig = build_kv_rig(
        lab_geometry(64), config=KVSSDConfig(index_dram_bytes=64 * MIB)
    )
    device = rig.device
    device.fast_fill(821_990, 4096, _SCHEME)

    def phase() -> None:
        execute_workload(
            rig.env, rig.adapter, generate_operations(_kv_mixed_spec(1)),
            queue_depth=8,
        )
        rig.drain()

    _, retained = alloc_ledger(phase)
    stored = len(device._records)
    assert stored > 14_000
    assert retained / stored <= 200


def test_a_kept_frontend_request_is_a_row_of_columns():
    """The ``frontend_rates`` benchmark's r48 rate with its trail kept:
    68 B a request retained (475 with a ``Request`` per request, its
    ``Operation``, key and boxed stamps) — the rig and its primed pairs
    are gone once the run returns."""
    n_requests = 7_000
    spec = build_load_spec(
        48_000.0, n_requests=n_requests, population=2_000,
        blocks_per_plane=16, seed=1,
    )
    result, retained = alloc_ledger(
        lambda: run_frontend(spec, keep_requests=True)
    )
    assert result.requests is not None and len(result.requests) == n_requests
    assert retained / n_requests <= 96


def _outliving(run: Callable[[], Any]) -> list:
    """Names of the devices and FTL cores ``run()`` built that are still
    alive once it returns, the cyclic collector off throughout: what only
    a full collection would free."""
    gc.collect()
    earlier = weakref.WeakSet(
        obj for obj in gc.get_objects() if isinstance(obj, (KVSSD, FtlCore))
    )
    gc.disable()
    try:
        run()
        return [
            type(obj).__name__ for obj in gc.get_objects()
            if isinstance(obj, (KVSSD, FtlCore)) and obj not in earlier
        ]
    finally:
        gc.enable()


def test_a_finished_frontend_run_or_shard_leaves_no_device_behind():
    """``run_frontend`` and ``run_shard`` build their rig ``with
    build_rig(...)``, so reference counting frees it as the call returns.
    Without ``close`` each call left one whole rig to a full collection
    (a KV-SSD and its FTL core, the cluster's degrading shard too)."""
    spec = build_load_spec(
        48_000.0, n_requests=2_000, population=2_000, blocks_per_plane=16,
        seed=1,
    )
    assert _outliving(lambda: run_frontend(spec)) == []
    cluster = ClusterSpec(
        shards=2, replication=2, partitions=8, vnodes=8,
        tenants=(TenantSpec(name="ta", workload="A", n_ops=60,
                            population=120, seed=11),),
        degrade=(DegradeEvent(shard=0, at_op=30),),
        rebalance_window_ops=15, blocks_per_plane=8, seed=17,
    )
    for shard in range(cluster.shards):
        assert _outliving(lambda: run_shard(cluster, shard)) == []


_ABSENT = KeyScheme(prefix=b"miss", digits=12)


def _failing_ops(kind: str) -> int:
    """A phase whose ops all fail, on a closed rig of 200 primed pairs:
    retrieves or deletes of absent keys, reads that stay uncorrectable,
    or updates a read-only device refuses.  Returns the failures."""
    faults = FaultConfig(seed=5, read_uncorrectable_prob=1.0) if kind == "unreadable" else None
    with build_kv_rig(lab_geometry(8), fault_config=faults) as rig:
        rig.prime(200, 4096, _SCHEME)
        if kind == "read-only":
            rig.device.core.read_only = True
        op, scheme, size = {
            "absent retrieve": (OpType.READ, _ABSENT, 0),
            "absent delete": (OpType.DELETE, _ABSENT, 0),
            "unreadable": (OpType.READ, _SCHEME, 0),
            "read-only": (OpType.UPDATE, _SCHEME, 4096),
        }[kind]
        operations = [Operation(op, scheme.key_for(i), i, size) for i in range(40)]
        result = execute_workload(rig.env, rig.adapter, operations, queue_depth=4)
        return result.failed_ops


@pytest.mark.parametrize(
    "kind", ["absent retrieve", "absent delete", "unreadable", "read-only"]
)
def test_failed_ops_leave_no_device_behind(kind):
    """A failed op's exception keeps the frames it passed; the engine
    drops their locals, so the rig is still freed by reference counting.
    With them, one failure kept the whole rig as cyclic garbage."""
    failed = []
    assert _outliving(lambda: failed.append(_failing_ops(kind))) == []
    # Half of the unreadable reads recover after a retry.
    assert failed == [20 if kind == "unreadable" else 40]


def test_page_map_tables_hold_32_bit_entries():
    rig = build_block_rig(lab_geometry(4))
    pagemap = rig.device.pagemap
    assert pagemap._forward.itemsize == pagemap._reverse.itemsize == 4


#: Peak RSS in KiB before and after building a page map over
#: ``lab_geometry(blocks_per_plane)`` with a unit for every slot, in a
#: fresh interpreter: no earlier test's high-water mark can hide it.
_BUILD_PAGE_MAP = """
import json, resource, sys
from repro.blockftl.mapping import PageMap
from repro.core.experiment import lab_geometry
from repro.units import KIB

geometry = lab_geometry(int(sys.argv[1]))
slots = geometry.total_pages * geometry.page_bytes // (4 * KIB)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
pagemap = PageMap(geometry, 4 * KIB, slots)
pagemap.bind(slots - 1, geometry.total_blocks - 1, geometry.pages_per_block - 1, 7)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert pagemap.lookup(slots - 1) == slots - 1 and pagemap.unit_at(slots - 1) == slots - 1
print(json.dumps([pagemap._forward.nbytes + pagemap._reverse.nbytes, before, after]))
"""


def test_page_map_tables_are_resident_only_where_written():
    """Tables 32 times the size of ``host_stacks``' (three block rigs on
    ``lab_geometry(16)``) raise peak RSS by under 8 MiB: their pages are
    zero-filled on first write, and one written entry is one page.
    Dense tables filled with UNMAPPED raise it by more than 100 MiB."""
    pagemap = build_block_rig(lab_geometry(16)).device.pagemap
    host_stacks = 3 * (pagemap._forward.nbytes + pagemap._reverse.nbytes)
    result = subprocess.run(
        [sys.executable, "-c", _BUILD_PAGE_MAP, str(16 * 96)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    table_bytes, before_kib, after_kib = json.loads(result.stdout)
    assert table_bytes >= 32 * host_stacks
    assert after_kib - before_kib < 8 * 1024
