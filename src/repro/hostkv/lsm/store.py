"""The LSM-tree key-value store (RocksDB stand-in).

End-to-end engine over the simulated file system and block SSD:
write-ahead log with group commit, memtable rotation, background flush,
leveled background compaction with write stalls, and a point-lookup path
through memtables, Bloom filters, a 10 MB block cache (the paper's
configuration), and SSTable data blocks.

What the paper measures through this engine:

* Fig. 2 — insert/update latency dominated by write stalls and compaction
  interference; read latency dominated by data-block device reads (the
  tiny cache misses almost always), but still cheaper than KV-SSD's
  in-device index walk;
* the ~13x host-CPU gap versus the KV stack (RQ1): WAL encoding, memtable
  maintenance, per-entry compaction work;
* Fig. 6a — compaction writes whole files sequentially and unlinks old
  ones (TRIM), so the block device always finds fully dead blocks to
  erase: no foreground GC;
* Fig. 7 — steady-state space amplification ~1.11 from obsolete versions
  awaiting compaction.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from heapq import merge as heap_merge
from typing import Dict, Generator, List, Optional

from repro.errors import ConfigurationError, KeyNotFoundError
from repro.hostkv.fs.ext4 import SimFileSystem
from repro.hostkv.lsm.compaction import (
    CompactionTask,
    merge_runs,
    pick_compaction,
    split_entries,
)
from repro.hostkv.lsm.memtable import Memtable
from repro.hostkv.lsm.sstable import BlockCache, SSTable
from repro.kvftl.keyhash import hash_fraction
from repro.sim.engine import Environment, Event
from repro.sim.signal import Signal
from repro.units import KIB, MIB, align_up, ceil_div


@dataclass(frozen=True)
class LSMConfig:
    """Engine shape and host CPU costs."""

    memtable_bytes: int = 4 * MIB
    max_immutables: int = 2
    l0_compaction_trigger: int = 4
    l0_stall_limit: int = 8
    level_base_bytes: int = 16 * MIB
    level_ratio: int = 10
    max_levels: int = 6
    sst_target_bytes: int = 4 * MIB
    block_bytes: int = 4 * KIB
    block_cache_bytes: int = 10 * MIB
    wal_group_bytes: int = 4 * KIB
    bloom_fp_rate: float = 0.01

    # -- host CPU costs (microseconds) ------------------------------------
    put_cpu_us: float = 22.0
    get_cpu_us: float = 16.0
    filter_check_cpu_us: float = 1.5
    block_decode_cpu_us: float = 6.0
    compact_entry_cpu_us: float = 2.8
    flush_entry_cpu_us: float = 1.5

    def __post_init__(self) -> None:
        if self.l0_stall_limit < self.l0_compaction_trigger:
            raise ConfigurationError("stall limit must be >= compaction trigger")
        if self.max_levels < 2:
            raise ConfigurationError("need at least two levels")
        if not 0.0 <= self.bloom_fp_rate <= 1.0:
            raise ConfigurationError("bloom FP rate outside [0, 1]")


class LSMStore:
    """RocksDB-like store over :class:`SimFileSystem`."""

    def __init__(
        self,
        env: Environment,
        fs: SimFileSystem,
        config: Optional[LSMConfig] = None,
        component: str = "lsm",
    ) -> None:
        self.env = env
        self.fs = fs
        self.config = config or LSMConfig()
        self.component = component
        self._cpu = fs.block_api.driver.cpu
        #: The device stack's tracer: memtable flushes and compactions
        #: appear as host-category spans on the same timeline as the
        #: block I/O they generate.
        self.tracer = fs.block_api.device.tracer
        self.memtable = Memtable(self.config.memtable_bytes)
        self._immutables: List[Memtable] = []
        self.levels: List[List[SSTable]] = [
            [] for _ in range(self.config.max_levels)
        ]
        self.cache = BlockCache(
            self.config.block_cache_bytes, self.config.block_bytes
        )
        #: Table ids in creation order; per store, so a rig's file names
        #: (which salt the Bloom false-positive draw) never depend on
        #: what else ran in the process.
        self._sst_ids = itertools.count()
        self._wal_generation = 0
        self._wal_name = self._wal_file_name(0)
        self._wal_created = False
        self._wal_pending = 0
        self._dirty = Signal(env, f"{component}.dirty")
        self._compact_wake = Signal(env, f"{component}.compact")
        self._unstall = Signal(env, f"{component}.unstall")
        self.stall_time_us = 0.0
        self.compactions_run = 0
        self.flushes_run = 0
        self.app_bytes_written = 0
        env.process(self._flush_worker(), name=f"{component}.flush")
        env.process(self._compaction_worker(), name=f"{component}.compact")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value_bytes: int) -> Generator[Event, None, None]:
        """Insert or update a pair (timed)."""
        if value_bytes < 0:
            raise ConfigurationError(f"negative value size {value_bytes}")
        self._cpu.charge(self.component, self.config.put_cpu_us)
        yield from self._write_entry(key, value_bytes)

    def delete(self, key: bytes) -> Generator[Event, None, None]:
        """Write a tombstone (timed)."""
        self._cpu.charge(self.component, self.config.put_cpu_us)
        yield from self._write_entry(key, None)

    def get(self, key: bytes) -> Generator[Event, None, int]:
        """Point lookup; returns the value size (timed)."""
        self._cpu.charge(self.component, self.config.get_cpu_us)
        if key in self.memtable:
            return self._value_or_raise(key, self.memtable.get(key))
        for immutable in reversed(self._immutables):
            if key in immutable:
                return self._value_or_raise(key, immutable.get(key))
        # L0 newest-first, then each deeper level's covering table.
        for table in sorted(self.levels[0], key=lambda t: -t.sst_id):
            value = yield from self._probe_table(table, key)
            if value != -1:
                return self._value_or_raise(key, value)
        for level in range(1, self.config.max_levels):
            for table in self.levels[level]:
                if not table.covers(key):
                    continue
                value = yield from self._probe_table(table, key)
                if value != -1:
                    return self._value_or_raise(key, value)
                break  # disjoint ranges: only one table can cover the key
        raise KeyNotFoundError(f"key {key!r} not in LSM store")

    def scan(self, start_key: bytes, count: int) -> Generator[Event, None, int]:
        """Ordered range scan: up to ``count`` live entries from ``start_key``.

        This is the operation an LSM tree is *good at* and a hash-indexed
        KV-SSD is not (it has only 4-byte-prefix iterator buckets) — the
        contrast YCSB workload E surfaces.  Returns bytes read.
        """
        if count < 1:
            raise ConfigurationError(f"scan count must be >= 1, got {count}")
        self._cpu.charge(self.component, self.config.get_cpu_us)
        sources = []
        memtable_keys = sorted(
            key for key in self.memtable.entries() if key >= start_key
        )[:count * 2]
        sources.append(memtable_keys)
        for immutable in self._immutables:
            sources.append(sorted(
                key for key in immutable.entries() if key >= start_key
            )[:count * 2])
        touched_tables = []
        for level in range(self.config.max_levels):
            for table in self.levels[level]:
                if table.max_key < start_key:
                    continue
                position = bisect.bisect_left(table.sorted_keys, start_key)
                window = table.sorted_keys[position:position + count * 2]
                if window:
                    sources.append(window)
                    touched_tables.append(table)
        selected = []
        for key in heap_merge(*sources):
            if selected and key == selected[-1]:
                continue
            selected.append(key)
            if len(selected) >= count:
                break
        # One block read per distinct (table, block) the scan touches.
        blocks_to_read = {}
        live_bytes = 0
        for key in selected:
            self._cpu.charge(self.component, self.config.filter_check_cpu_us)
            value, table = self._resolve(key)
            if value is None:
                continue  # tombstone or vanished
            live_bytes += value
            if table is not None:
                blocks_to_read.setdefault(
                    (table.sst_id, table.block_for(key)), table
                )
        for (_sst_id, block_index), table in blocks_to_read.items():
            yield from self._read_block(table, block_index)
        return live_bytes

    def _resolve(self, key: bytes):
        """Newest-wins value for ``key``: (value_or_None, table_or_None)."""
        if key in self.memtable:
            return self.memtable.get(key), None
        for immutable in reversed(self._immutables):
            if key in immutable:
                return immutable.get(key), None
        for table in sorted(self.levels[0], key=lambda t: -t.sst_id):
            if key in table.entries:
                return table.entries[key], table
        for level in range(1, self.config.max_levels):
            for table in self.levels[level]:
                if table.covers(key) and key in table.entries:
                    return table.entries[key], table
        return None, None

    def drain(self) -> Generator[Event, None, None]:
        """Flush all buffered state and settle compactions (experiment end)."""
        if len(self.memtable):
            self._rotate_memtable()
        while self._immutables or self._pending_compaction() is not None:
            self._dirty.notify_all()
            self._compact_wake.notify_all()
            yield self.env.sleep(1000.0)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------

    def _write_entry(
        self, key: bytes, value_bytes: Optional[int]
    ) -> Generator[Event, None, None]:
        stall_started = None
        while (
            len(self._immutables) >= self.config.max_immutables
            or len(self.levels[0]) >= self.config.l0_stall_limit
        ):
            if stall_started is None:
                stall_started = self.env.now
            self._compact_wake.notify_all()
            self._dirty.notify_all()
            yield self._unstall.park()
        if stall_started is not None:
            self.stall_time_us += self.env.now - stall_started

        # WAL group commit: the put that fills a group writes it out.
        self._wal_pending += len(key) + (value_bytes or 0) + 12
        if self._wal_pending >= self.config.wal_group_bytes:
            chunk = align_up(self._wal_pending, SimFileSystem.FS_BLOCK)
            self._wal_pending = 0
            yield from self._ensure_wal()
            yield from self.fs.append(self._wal_name, chunk)

        self.memtable.put(key, value_bytes)
        self.app_bytes_written += len(key) + (value_bytes or 0)
        if self.memtable.is_full:
            self._rotate_memtable()
            self._dirty.notify_all()

    def _ensure_wal(self) -> Generator[Event, None, None]:
        if not self._wal_created:
            self._wal_created = True
            yield from self.fs.create(self._wal_name)

    def _wal_file_name(self, generation: int) -> str:
        return f"{self.component}-wal-{generation:06d}.log"

    def _rotate_memtable(self) -> None:
        self._immutables.append(self.memtable)
        self.memtable = Memtable(self.config.memtable_bytes)
        self._wal_generation += 1
        self._wal_name = self._wal_file_name(self._wal_generation)
        self._wal_created = False
        self._wal_pending = 0

    # ------------------------------------------------------------------
    # read-path helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _value_or_raise(key: bytes, value: Optional[int]) -> int:
        if value is None:
            raise KeyNotFoundError(f"key {key!r} deleted")
        return value

    def _probe_table(
        self, table: SSTable, key: bytes
    ) -> Generator[Event, None, int]:
        """Check one SSTable; returns the value size, None-as--1 sentinel.

        Returns -1 when the table does not hold the key (possibly after a
        modeled Bloom false-positive block read); tombstones come back as
        raising via the caller.
        """
        self._cpu.charge(self.component, self.config.filter_check_cpu_us)
        if not table.covers(key):
            return -1
        present = key in table.entries
        if not present:
            salt = key + table.name.encode("ascii")
            if hash_fraction(salt) >= self.config.bloom_fp_rate:
                return -1  # clean Bloom negative
            # False positive: waste one block read in the middle.
            yield from self._read_block(table, table.n_blocks // 2)
            return -1
        first_block = table.block_for(key)
        value = table.entries[key]
        nblocks = max(1, ceil_div((value or 0), self.config.block_bytes))
        for block_index in range(
            first_block, min(first_block + nblocks, table.n_blocks)
        ):
            yield from self._read_block(table, block_index)
        if value is None:
            raise KeyNotFoundError(f"key {key!r} deleted")
        return value

    def _read_block(
        self, table: SSTable, block_index: int
    ) -> Generator[Event, None, None]:
        if self.cache.lookup(table.sst_id, block_index):
            self._cpu.charge(self.component, self.config.block_decode_cpu_us)
            return
        offset = table.block_offset(block_index)
        nbytes = min(self.config.block_bytes, table.file_bytes - offset)
        yield from self.fs.read(table.name, offset, max(1, nbytes))
        self._cpu.charge(self.component, self.config.block_decode_cpu_us)
        self.cache.insert(table.sst_id, block_index)

    # ------------------------------------------------------------------
    # background flush
    # ------------------------------------------------------------------

    def _flush_worker(self) -> Generator[Event, None, None]:
        while True:
            if not self._immutables:
                yield self.env.any_of(
                    [self._dirty.wait(), self.env.timeout(2000.0)]
                )
                continue
            immutable = self._immutables[0]
            entries = immutable.entries()
            flush_started = self.env.now
            if entries:
                table = SSTable(
                    0, entries, self.config.block_bytes,
                    sst_id=next(self._sst_ids),
                )
                self._cpu.charge(
                    self.component, self.config.flush_entry_cpu_us * len(entries)
                )
                yield from self.fs.create(table.name)
                yield from self.fs.append(table.name, table.file_bytes)
                self.levels[0].append(table)
            self._immutables.pop(0)
            self.flushes_run += 1
            if self.tracer.wants("host"):
                self.tracer.complete(
                    f"{self.component}.flush", "memtable.flush", "host",
                    self.env.now - flush_started,
                    args={"entries": len(entries)},
                )
            wal_name = self._wal_file_name(
                self._wal_generation - len(self._immutables) - 1
            )
            if self.fs.exists(wal_name):
                yield from self.fs.unlink(wal_name)
            self._unstall.notify_all()
            if len(self.levels[0]) >= self.config.l0_compaction_trigger:
                self._compact_wake.notify_all()

    # ------------------------------------------------------------------
    # background compaction
    # ------------------------------------------------------------------

    def _pending_compaction(self) -> Optional[CompactionTask]:
        return pick_compaction(
            self.levels,
            self.config.l0_compaction_trigger,
            self.config.level_base_bytes,
            self.config.level_ratio,
        )

    def _compaction_worker(self) -> Generator[Event, None, None]:
        while True:
            task = self._pending_compaction()
            if task is None:
                yield self.env.any_of(
                    [self._compact_wake.wait(), self.env.timeout(2000.0)]
                )
                continue
            yield from self._run_compaction(task)

    def _run_compaction(self, task: CompactionTask) -> Generator[Event, None, None]:
        self.compactions_run += 1
        compact_started = self.env.now
        inputs = task.upper_inputs + task.lower_inputs
        for table in inputs:
            yield from self.fs.read(table.name, 0, max(1, table.data_bytes))
        self._cpu.charge(
            self.component,
            self.config.compact_entry_cpu_us * task.input_entries,
        )
        is_bottom = all(
            not self.levels[level]
            for level in range(task.output_level + 1, self.config.max_levels)
        )
        merged = merge_runs(task, is_bottom)
        outputs: List[SSTable] = []
        if merged:
            outputs = split_entries(
                merged,
                self.config.sst_target_bytes,
                task.output_level,
                self.config.block_bytes,
                self._sst_ids,
            )
            for table in outputs:
                yield from self.fs.create(table.name)
                yield from self.fs.append(table.name, table.file_bytes)
        # Swap the tree state, then delete inputs (TRIM to the device).
        input_ids = {table.sst_id for table in inputs}
        self.levels[task.upper_level] = [
            t for t in self.levels[task.upper_level] if t.sst_id not in input_ids
        ]
        self.levels[task.output_level] = sorted(
            [
                t
                for t in self.levels[task.output_level]
                if t.sst_id not in input_ids
            ]
            + outputs,
            key=lambda t: t.min_key,
        )
        for table in inputs:
            self.cache.drop_table(table.sst_id)
            yield from self.fs.unlink(table.name)
        self._unstall.notify_all()
        if self.tracer.wants("host"):
            self.tracer.complete(
                f"{self.component}.compact", "compaction", "host",
                self.env.now - compact_started,
                args={
                    "inputs": len(inputs),
                    "outputs": len(outputs),
                    "entries": task.input_entries,
                    "output_level": task.output_level,
                },
            )

    # ------------------------------------------------------------------
    # observability and priming
    # ------------------------------------------------------------------

    def live_entries(self) -> int:
        """Distinct live keys across the whole tree (test/verification)."""
        merged: Dict[bytes, Optional[int]] = {}
        for level in range(self.config.max_levels - 1, 0, -1):
            for table in self.levels[level]:
                merged.update(table.entries)
        for table in sorted(self.levels[0], key=lambda t: t.sst_id):
            merged.update(table.entries)
        for immutable in self._immutables:
            merged.update(immutable.entries())
        merged.update(self.memtable.entries())
        return sum(1 for value in merged.values() if value is not None)

    def table_bytes(self) -> int:
        """Total SSTable file bytes (numerator of space amplification)."""
        return sum(
            table.file_bytes for level in self.levels for table in level
        )

    def space_amplification(self) -> float:
        """Persisted bytes over live application bytes (Fig. 7 metric)."""
        live: Dict[bytes, Optional[int]] = {}
        for level in range(self.config.max_levels - 1, -1, -1):
            for table in self.levels[level]:
                live.update(table.entries)
        app = sum(
            len(key) + value for key, value in live.items() if value is not None
        )
        if app == 0:
            raise ConfigurationError("no live data to measure amplification")
        return self.table_bytes() / app

    def prime_fill(self, entries: Dict[bytes, int], level: int = 3) -> None:
        """Install entries directly as deep-level SSTables (untimed).

        The file system allocates and the device primes the extents, so
        subsequent reads and compactions see real state; only the fill
        traffic itself is skipped — mirroring the KV device's fast_fill.
        """
        if not entries:
            raise ConfigurationError("prime_fill needs at least one entry")
        if not 1 <= level < self.config.max_levels:
            raise ConfigurationError(f"prime level {level} out of range")
        tables = split_entries(
            dict(entries),
            self.config.sst_target_bytes,
            level,
            self.config.block_bytes,
            self._sst_ids,
        )
        for table in tables:
            self.fs.prime_file(table.name, table.file_bytes)
            self.levels[level].append(table)
        self.levels[level].sort(key=lambda t: t.min_key)
        self.app_bytes_written += sum(
            len(key) + value for key, value in entries.items()
        )
