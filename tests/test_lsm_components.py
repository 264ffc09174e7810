"""Unit tests for LSM components: memtable, SSTables, cache, compaction."""

import itertools

import pytest

from repro.errors import ConfigurationError
from repro.hostkv.lsm.compaction import (
    CompactionTask,
    level_bytes,
    level_target_bytes,
    merge_runs,
    overlapping,
    pick_compaction,
    split_entries,
)
from repro.hostkv.lsm.memtable import Memtable
from repro.hostkv.lsm.sstable import BlockCache, SSTable
from repro.units import KIB, MIB


# -- Memtable -----------------------------------------------------------------


def test_memtable_put_get():
    table = Memtable(1 * MIB)
    table.put(b"k1", 100)
    table.put(b"k2", None)  # tombstone
    assert table.get(b"k1") == 100
    assert table.get(b"k2") is None
    assert b"k1" in table
    assert len(table) == 2


def test_memtable_overwrite_updates_bytes():
    table = Memtable(1 * MIB)
    table.put(b"k", 1000)
    first = table.bytes_used
    table.put(b"k", 10)
    assert table.bytes_used < first
    assert len(table) == 1


def test_memtable_fullness():
    table = Memtable(1000)
    assert not table.is_full
    table.put(b"key", 2000)
    assert table.is_full


def test_memtable_rejects_negative():
    table = Memtable(100)
    with pytest.raises(ConfigurationError):
        table.put(b"k", -5)


# -- SSTable ------------------------------------------------------------------


def test_sstable_metadata():
    table = SSTable(1, {b"b": 100, b"a": 200, b"c": None})
    assert table.min_key == b"a"
    assert table.max_key == b"c"
    assert table.covers(b"b")
    assert not table.covers(b"d")
    assert len(table) == 3
    assert table.file_bytes > table.data_bytes


def test_sstable_empty_rejected():
    with pytest.raises(ConfigurationError):
        SSTable(0, {})


def test_sstable_overlap_detection():
    left = SSTable(1, {b"a": 1, b"m": 1})
    right = SSTable(1, {b"n": 1, b"z": 1})
    middle = SSTable(1, {b"k": 1, b"p": 1})
    assert not left.overlaps(right)
    assert left.overlaps(middle)
    assert right.overlaps(middle)


def test_sstable_block_placement_ordered():
    entries = {b"key-%04d" % i: 4096 for i in range(64)}
    table = SSTable(1, entries)
    blocks = [table.block_for(b"key-%04d" % i) for i in range(64)]
    assert blocks == sorted(blocks)  # sorted keys map to increasing blocks
    assert blocks[-1] <= table.n_blocks - 1
    assert len(set(blocks)) > 1  # entries actually spread over blocks


def test_sstable_block_offset_bounds():
    table = SSTable(1, {b"a": 4096})
    assert table.block_offset(0) == 0
    with pytest.raises(ConfigurationError):
        table.block_offset(table.n_blocks)


# -- BlockCache -----------------------------------------------------------------


def test_block_cache_hit_after_insert():
    cache = BlockCache(40 * KIB)
    assert not cache.lookup(1, 0)
    cache.insert(1, 0)
    assert cache.lookup(1, 0)
    assert cache.hit_rate() == pytest.approx(0.5)


def test_block_cache_lru_eviction():
    cache = BlockCache(8 * KIB)  # two blocks
    cache.insert(1, 0)
    cache.insert(1, 1)
    cache.insert(1, 2)  # evicts (1, 0)
    assert not cache.lookup(1, 0)
    assert cache.lookup(1, 2)


def test_block_cache_drop_table():
    cache = BlockCache(40 * KIB)
    cache.insert(1, 0)
    cache.insert(2, 0)
    cache.drop_table(1)
    assert not cache.lookup(1, 0)
    assert cache.lookup(2, 0)


def test_block_cache_must_hold_one_block():
    with pytest.raises(ConfigurationError):
        BlockCache(100)


# -- compaction policy -----------------------------------------------------------


def test_level_targets_grow_by_ratio():
    assert level_target_bytes(1, 16 * MIB) == 16 * MIB
    assert level_target_bytes(2, 16 * MIB) == 160 * MIB
    with pytest.raises(ConfigurationError):
        level_target_bytes(0, 16 * MIB)


def test_pick_compaction_prefers_l0():
    levels = [
        [SSTable(0, {b"a%d" % i: 100}) for i in range(4)],
        [SSTable(1, {b"a0": 100, b"z": 100})],
        [],
    ]
    task = pick_compaction(levels, base_bytes=MIB)
    assert task is not None
    assert task.upper_level == 0
    assert len(task.upper_inputs) == 4
    assert len(task.lower_inputs) == 1  # the overlapping L1 run


def test_pick_compaction_none_when_healthy():
    levels = [[SSTable(0, {b"a": 100})], [], []]
    assert pick_compaction(levels, MIB) is None


def test_pick_compaction_over_budget_level():
    big = {b"key-%05d" % i: 4096 for i in range(600)}  # ~2.5 MiB
    levels = [[], [SSTable(1, big)], []]
    task = pick_compaction(levels, base_bytes=1 * MIB)
    assert task is not None
    assert task.upper_level == 1


def test_merge_runs_newest_wins():
    old = SSTable(1, {b"k": 100, b"only-old": 5})
    new = SSTable(0, {b"k": 200})
    task = CompactionTask(0, [new], [old])
    merged = merge_runs(task, is_bottom=False)
    assert merged[b"k"] == 200
    assert merged[b"only-old"] == 5


def test_merge_runs_l0_order_by_sst_id():
    first = SSTable(0, {b"k": 1})
    second = SSTable(0, {b"k": 2}, sst_id=1)  # created later -> newer
    task = CompactionTask(0, [first, second], [])
    assert merge_runs(task, is_bottom=False)[b"k"] == 2


def test_merge_drops_tombstones_at_bottom():
    table = SSTable(0, {b"dead": None, b"live": 7})
    task = CompactionTask(0, [table], [])
    assert merge_runs(task, is_bottom=True) == {b"live": 7}
    assert merge_runs(task, is_bottom=False) == {b"dead": None, b"live": 7}


def test_split_entries_respects_target_and_order():
    entries = {b"key-%04d" % i: 4096 for i in range(100)}
    tables = split_entries(entries, target_bytes=64 * KIB, level=2,
                           ids=itertools.count())
    assert len(tables) > 1
    assert sum(len(t) for t in tables) == 100
    # Disjoint, sorted ranges.
    for left, right in zip(tables, tables[1:]):
        assert left.max_key < right.min_key


def test_overlapping_helper():
    probe = SSTable(1, {b"m": 1, b"q": 1})
    candidates = [
        SSTable(2, {b"a": 1, b"c": 1}),
        SSTable(2, {b"n": 1, b"o": 1}),
        SSTable(2, {b"z": 1}),
    ]
    found = overlapping(probe, candidates)
    assert len(found) == 1
    assert found[0].min_key == b"n"


def test_level_bytes_sums_files():
    tables = [SSTable(1, {b"a": 100}), SSTable(1, {b"b": 200})]
    assert level_bytes(tables) == sum(t.file_bytes for t in tables)
