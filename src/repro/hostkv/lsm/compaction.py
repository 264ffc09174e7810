"""Leveled compaction policy (RocksDB-style).

Pure decision and merge logic, separated from the timed engine in
``store.py`` so it can be unit-tested exhaustively:

* :func:`pick_compaction` — choose what to compact next: L0 when it has
  accumulated enough flush products, otherwise the most over-budget level.
* :func:`merge_runs` — newest-wins merge of input tables, dropping
  tombstones when the output is the bottom of the tree.
* :func:`split_entries` — chop merged entries into target-size output
  tables in sorted key order.

The paper's observations depend on this machinery twice: compaction CPU
and I/O are most of the 13x host-CPU gap (RQ1), and compaction's habit of
rewriting whole files sequentially and deleting old ones is why the block
device under RocksDB never foreground-GCs (Fig. 6a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.hostkv.lsm.sstable import SSTable


@dataclass(frozen=True)
class CompactionTask:
    """A unit of compaction work: inputs from two adjacent levels."""

    upper_level: int
    upper_inputs: List[SSTable]
    lower_inputs: List[SSTable]

    @property
    def output_level(self) -> int:
        return self.upper_level + 1

    @property
    def input_entries(self) -> int:
        return sum(len(t) for t in self.upper_inputs + self.lower_inputs)


def level_target_bytes(level: int, base_bytes: int, ratio: int) -> int:
    """Size budget of level ``level`` (levels >= 1)."""
    if level < 1:
        raise ConfigurationError("level targets are defined for levels >= 1")
    return base_bytes * (ratio ** (level - 1))


def level_bytes(tables: List[SSTable]) -> int:
    """Total file bytes of a level."""
    return sum(table.file_bytes for table in tables)


def overlapping(table: SSTable, candidates: List[SSTable]) -> List[SSTable]:
    """Candidates whose key range intersects ``table``'s."""
    return [other for other in candidates if table.overlaps(other)]


def pick_compaction(
    levels: List[List[SSTable]],
    l0_trigger: int,
    base_bytes: int,
    ratio: int,
) -> Optional[CompactionTask]:
    """Choose the next compaction, or None when the tree is in shape.

    L0 wins ties because L0 buildup is what stalls writers.
    """
    if not levels:
        return None
    if len(levels[0]) >= l0_trigger:
        upper = list(levels[0])
        lower: List[SSTable] = []
        if len(levels) > 1:
            seen = set()
            for table in upper:
                for other in overlapping(table, levels[1]):
                    if other.sst_id not in seen:
                        seen.add(other.sst_id)
                        lower.append(other)
        return CompactionTask(0, upper, lower)
    for level in range(1, len(levels) - 1):
        tables = levels[level]
        if level_bytes(tables) <= level_target_bytes(level, base_bytes, ratio):
            continue
        # Oldest table first: a simple, deterministic cursor.
        upper_table = min(tables, key=lambda t: t.sst_id)
        lower = overlapping(upper_table, levels[level + 1])
        return CompactionTask(level, [upper_table], lower)
    return None


def merge_runs(
    task: CompactionTask, is_bottom: bool
) -> Dict[bytes, Optional[int]]:
    """Newest-wins merge of the task's inputs.

    Input precedence: lower level is older than upper; within L0, higher
    sst_id is newer (flush order).  Tombstones survive unless the output
    is the bottom of the tree.
    """
    merged: Dict[bytes, Optional[int]] = {}
    ordered = sorted(task.lower_inputs, key=lambda t: t.sst_id) + sorted(
        task.upper_inputs, key=lambda t: t.sst_id
    )
    for table in ordered:
        merged.update(table.entries)
    if is_bottom:
        merged = {
            key: value for key, value in merged.items() if value is not None
        }
    return merged


def split_entries(
    entries: Dict[bytes, Optional[int]],
    target_bytes: int,
    level: int,
    block_bytes: int,
    ids: Iterator[int],
) -> List[SSTable]:
    """Chop merged entries into <= target-size tables in key order.

    ``ids`` is the owning store's table-id counter.
    """
    if target_bytes < 1:
        raise ConfigurationError(f"target bytes must be >= 1, got {target_bytes}")
    tables: List[SSTable] = []
    chunk: Dict[bytes, Optional[int]] = {}
    chunk_bytes = 0
    for key in sorted(entries):
        value = entries[key]
        chunk[key] = value
        chunk_bytes += len(key) + (value or 0)
        if chunk_bytes >= target_bytes:
            tables.append(SSTable(level, chunk, block_bytes, sst_id=next(ids)))
            chunk = {}
            chunk_bytes = 0
    if chunk:
        tables.append(SSTable(level, chunk, block_bytes, sst_id=next(ids)))
    return tables
