"""The allocation ledger: what untimed state costs in host memory.

Beside the call ledger (``tests/conftest.py:call_ledger``), which counts
Python calls, this counts bytes with :mod:`tracemalloc` and structures
with ``len``: the numbers are the same on every machine of one Python
version, so a change that brings back an object per fill page or per
parsed field fails here rather than as a drift in the benchmark's
``host_peak_rss_mib``.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Any, Callable, Tuple

from repro.core.experiment import build_block_rig, build_kv_rig, lab_geometry
from repro.kvbench.traces import (
    TRACE_MAGIC,
    TRACE_VERSION,
    format_record,
    parse_trace,
    spec_to_records,
)
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.units import MIB

#: The ``kv_mixed`` benchmark's fill: 16 B keys, 4 KiB values.
_SCHEME = KeyScheme(prefix=b"fill", digits=12)


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


def test_a_parsed_trace_record_is_slotted_and_shares_its_op():
    """The ``kv_mixed`` benchmark's 30,000-record export: 169 B a record
    retained (183 line by line, which builds an int per size; 261 with a
    ``__dict__`` and a fresh op string per record)."""
    spec = WorkloadSpec(
        n_ops=30_000, op="mixed", pattern=Pattern.UNIFORM, population=821_990,
        key_scheme=_SCHEME, value_bytes=4096, read_fraction=0.5, seed=3,
    )
    lines = [f"{TRACE_MAGIC} v{TRACE_VERSION}"]
    lines.extend(format_record(record) for record in spec_to_records(spec))
    records, retained = alloc_ledger(lambda: parse_trace(lines))
    assert len(records) == 30_000
    assert retained / len(records) <= 200


def test_page_map_tables_hold_32_bit_entries():
    rig = build_block_rig(lab_geometry(4))
    pagemap = rig.device.pagemap
    assert pagemap._forward.itemsize == pagemap._reverse.itemsize == 4
