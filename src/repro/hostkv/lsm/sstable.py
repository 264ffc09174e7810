"""SSTables and the block cache.

An :class:`SSTable` is an immutable sorted run persisted as one file.  The
simulator keeps its entries as a dict (sizes only) plus the derived
metadata a real table carries: key range, data size, and per-block layout
used to decide how many device reads a point lookup costs.  Membership is
answered exactly (a real Bloom filter's false positives are modeled as a
small extra probability of a wasted block read, stated in the store).

:class:`BlockCache` is the LRU data-block cache RocksDB is configured with
in the paper (only 10 MB — which is why its read path still mostly hits
the device, Fig. 2c).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import KIB, ceil_div

#: Per-entry serialized overhead in a data block (lengths, restart array).
SST_ENTRY_OVERHEAD = 16
#: Filter plus index block bytes per entry (approximate).
SST_METADATA_PER_ENTRY = 12
#: Data block size (RocksDB's default).
BLOCK_BYTES = 4 * KIB


@dataclass
class SSTable:
    """One immutable sorted run."""

    level: int
    entries: Dict[bytes, Optional[int]]
    #: Creation order within the owning store (newer = larger); the store
    #: hands ids out, so equal rigs name — and Bloom-salt — tables equally.
    sst_id: int = 0

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("an SSTable cannot be empty")
        self.name = f"sst-{self.sst_id:08d}.sst"
        self.min_key = min(self.entries)
        self.max_key = max(self.entries)
        self.data_bytes = sum(
            len(key) + (value or 0) + SST_ENTRY_OVERHEAD
            for key, value in self.entries.items()
        )
        self.file_bytes = self.data_bytes + len(self.entries) * SST_METADATA_PER_ENTRY
        self.n_blocks = max(1, ceil_div(self.data_bytes, BLOCK_BYTES))
        # Deterministic key -> block placement (sorted order chunking).
        self.sorted_keys = sorted(self.entries)
        self._block_of: Dict[bytes, int] = {}
        position = 0
        for key in self.sorted_keys:
            value = self.entries[key]
            self._block_of[key] = min(
                position // BLOCK_BYTES, self.n_blocks - 1
            )
            position += len(key) + (value or 0) + SST_ENTRY_OVERHEAD

    def __len__(self) -> int:
        return len(self.entries)

    def covers(self, key: bytes) -> bool:
        """Whether ``key`` falls inside this run's key range."""
        return self.min_key <= key <= self.max_key

    def overlaps(self, other: "SSTable") -> bool:
        """Whether the two runs' key ranges intersect."""
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def block_for(self, key: bytes) -> int:
        """Data block index holding ``key`` (must be present)."""
        return self._block_of[key]

    def block_offset(self, block_index: int) -> int:
        """File offset of a data block."""
        if not 0 <= block_index < self.n_blocks:
            raise ConfigurationError(
                f"block {block_index} outside [0, {self.n_blocks})"
            )
        return block_index * BLOCK_BYTES


class BlockCache:
    """LRU cache over (sst_id, block_index) data blocks."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < BLOCK_BYTES:
            raise ConfigurationError(
                "block cache must hold at least one block"
            )
        self.capacity_bytes = capacity_bytes
        self._lru: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def capacity_blocks(self) -> int:
        """Whole blocks the cache can hold."""
        return self.capacity_bytes // BLOCK_BYTES

    def lookup(self, sst_id: int, block_index: int) -> bool:
        """Probe (and promote) a block; True on hit."""
        key = (sst_id, block_index)
        if key in self._lru:
            self._lru.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, sst_id: int, block_index: int) -> None:
        """Admit a block, evicting LRU blocks as needed."""
        key = (sst_id, block_index)
        self._lru[key] = None
        self._lru.move_to_end(key)
        while len(self._lru) > self.capacity_blocks:
            self._lru.popitem(last=False)

    def drop_table(self, sst_id: int) -> None:
        """Evict all blocks of a deleted SSTable."""
        stale = [key for key in self._lru if key[0] == sst_id]
        for key in stale:
            del self._lru[key]

    def hit_rate(self) -> float:
        """Hit fraction so far (0.0 when unused)."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
