"""Model of the KV-SSD's multi-level global hash index.

The device keeps one index entry per stored pair (Sec. IV, "Impact of
index occupancy"): the index grows linearly with the number of KVPs, and
once it no longer fits in device DRAM, lookups and merges spill to flash.
This module models that behaviour at the fidelity the paper measures:

* **Residency** — the fraction of the index cacheable in DRAM.  A lookup
  of a non-resident entry costs one or two flash page reads (multi-level
  walk); which keys are resident is decided deterministically per key so
  runs are reproducible.
* **Merging** — inserts land in per-manager local indexes and merge into
  the global index in batches.  A merge touches a set of distinct index
  pages; non-resident pages must be read before being rewritten.  With a
  small index the batch touches few pages (cheap); with billions of
  entries nearly every entry dirties its own page — the mechanism behind
  the paper's 16.4x write-latency blowup at high occupancy (Fig. 3).

The index's flash traffic is directed at a reserved *index region* of
blocks so it contends for the same dies and channels as user data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError
from repro.kvftl.config import (
    INDEX_ENTRY_BYTES,
    INDEX_STRUCTURE_OVERHEAD,
    MERGE_BATCH,
)
from repro.kvftl.keyhash import hash_fraction
from repro.units import ceil_div


@dataclass(frozen=True)
class MergeWork:
    """Flash work one merge batch must perform."""

    page_reads: int
    page_writes: int


class GlobalHashIndex:
    """Analytic state of the global index plus its flash-region cursor."""

    def __init__(
        self,
        page_bytes: int,
        dram_bytes: int,
        region_blocks: List[int],
        pages_per_block: int,
    ) -> None:
        if dram_bytes < 1:
            raise ConfigurationError(f"index DRAM must be >= 1 byte, got {dram_bytes}")
        if not region_blocks:
            raise ConfigurationError("index region needs at least one block")
        self.page_bytes = page_bytes
        self.dram_bytes = dram_bytes
        self.region_blocks = list(region_blocks)
        self.pages_per_block = pages_per_block
        self.entries = 0
        #: Entries accumulated in local indexes, awaiting merge.
        self.dirty_entries = 0
        self._cursor = 0

    # -- size model ---------------------------------------------------------

    @property
    def index_bytes(self) -> int:
        """Current index size including multi-level structure overhead."""
        return int(self.entries * INDEX_ENTRY_BYTES * INDEX_STRUCTURE_OVERHEAD)

    @property
    def index_pages(self) -> int:
        """Flash pages the persisted index occupies (>= 1)."""
        return max(1, ceil_div(max(self.index_bytes, 1), self.page_bytes))

    def resident_fraction(self) -> float:
        """Fraction of the index cacheable in device DRAM."""
        size = self.index_bytes
        if size <= self.dram_bytes:
            return 1.0
        return self.dram_bytes / size

    def levels_on_flash(self) -> int:
        """Index levels a non-resident lookup walks on flash (1 or 2)."""
        return 1 if self.index_pages <= 512 else 2

    # -- lookup model ---------------------------------------------------------

    def lookup_flash_reads(self, key: bytes) -> int:
        """Flash page reads a lookup of ``key`` needs right now.

        Deterministic per key: a key is resident iff its hash fraction
        falls inside the resident window.  A fully resident index answers
        without hashing — the 64-bit FNV is pure Python, and a fraction
        that rounds to exactly 1.0 must not read flash there either.
        """
        resident = self.resident_fraction()
        if resident >= 1.0 or hash_fraction(key) < resident:
            return 0
        return self.levels_on_flash()

    # -- mutation model --------------------------------------------------------

    def prime_entries(self, count: int) -> None:
        """Register ``count`` entries without merge debt (bulk fills).

        A fast-filled device starts with its index fully merged, exactly
        as a real device looks after the fill traffic has quiesced.
        """
        if count < 0:
            raise ConfigurationError(f"cannot prime {count} entries")
        self.entries += count

    def note_insert(self) -> None:
        """Record a new entry landing in a local index (pre-merge)."""
        self.entries += 1
        self.dirty_entries += 1

    def note_update(self) -> None:
        """Record an entry's location changing (update/GC relocation)."""
        self.dirty_entries += 1

    def note_delete(self) -> None:
        """Record an entry removal."""
        if self.entries <= 0:
            raise ConfigurationError("index delete with no entries")
        self.entries -= 1
        self.dirty_entries += 1

    def take_merge_batch(self) -> MergeWork:
        """Consume up to one merge batch of dirty entries; return its cost.

        Expected distinct pages touched by ``B`` uniformly hashed entries
        over ``P`` pages: ``P * (1 - (1 - 1/P)**B)``.  Non-resident pages
        are read before rewrite; every touched page is written back.
        """
        batch = min(self.dirty_entries, MERGE_BATCH)
        if batch == 0:
            return MergeWork(0, 0)
        self.dirty_entries -= batch
        pages = self.index_pages
        touched = pages * (1.0 - (1.0 - 1.0 / pages) ** batch)
        resident = self.resident_fraction()
        # DRAM-resident pages are updated in place and persisted lazily
        # (checkpointing is below measurement fidelity); only the
        # non-resident portion forces flash read-modify-writes through
        # the serialized merge engine.  This is why a lightly occupied
        # device merges for free and a full one pays per entry (Fig. 3).
        non_resident = round(touched * (1.0 - resident))
        return MergeWork(page_reads=non_resident, page_writes=non_resident)

    # -- flash-region addressing ------------------------------------------------

    def next_region_page(self) -> Tuple[int, int]:
        """Round-robin (block, page) inside the index region.

        The region is modeled as overwrite-in-place flash (its internal
        log-structuring is below the fidelity the paper's experiments can
        distinguish); what matters is that index I/O occupies the same
        dies and channels as data I/O.
        """
        total = len(self.region_blocks) * self.pages_per_block
        slot = self._cursor % total
        self._cursor += 1
        block_pos, page = divmod(slot, self.pages_per_block)
        return self.region_blocks[block_pos], page
