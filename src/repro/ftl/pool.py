"""Free-block pooling and open-block page allocation.

Both firmware personalities allocate flash pages through the same two
structures:

* :class:`FreeBlockPool` — per-die queues of erased blocks, so allocation
  can stripe across dies for program parallelism.
* :class:`AllocationStream` — a set of concurrently OPEN blocks (one write
  frontier per die in use) that hands out ``(block, page)`` slots round-
  robin.  The *width* of a stream is a policy lever the paper's analysis
  turns on: the block personality keeps fewer open blocks to preserve
  spatial locality of logical blocks, while the KV personality stripes its
  hash-ordered log across every die (Sec. IV, "Impact of concurrency").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.errors import ConfigurationError, DeviceFullError
from repro.flash.nand import BlockState, FlashArray


class FreeBlockPool:
    """Tracks FREE blocks grouped by die.

    The pool is initialized from the array's current state, so priming a
    device and then building a pool stays consistent.
    """

    def __init__(self, array: FlashArray) -> None:
        self.array = array
        self._by_die: Dict[int, Deque[int]] = {
            die: deque() for die in range(array.geometry.total_dies)
        }
        self._count = 0
        #: Grown defects: blocks permanently withdrawn from allocation.
        #: They consume the over-provisioning spares — the FTL core
        #: compares this against its spare budget to decide when the
        #: device must degrade to read-only.
        self.retired: Set[int] = set()
        for block_index, info in enumerate(array.blocks):
            if info.state is BlockState.FREE:
                self.push(block_index)

    def __len__(self) -> int:
        return self._count

    def push(self, block_index: int) -> None:
        """Return an erased block to the pool."""
        if block_index in self.retired:
            raise ConfigurationError(
                f"retired block {block_index} cannot rejoin the free pool"
            )
        die = self.array.geometry.die_of_block(block_index)
        self._by_die[die].append(block_index)
        self._count += 1

    def pop(self, preferred_die: Optional[int] = None) -> int:
        """Take a free block, preferring ``preferred_die`` when stocked.

        Falls back to the best-stocked die so allocation never fails while
        any free block exists anywhere.
        """
        if self._count == 0:
            raise DeviceFullError("no free blocks available")
        if preferred_die is not None and self._by_die[preferred_die]:
            die = preferred_die
        else:
            die = max(self._by_die, key=lambda d: len(self._by_die[d]))
            if not self._by_die[die]:
                raise DeviceFullError("no free blocks available")
        self._count -= 1
        return self._by_die[die].popleft()

    def reserve(self, block_index: int) -> None:
        """Remove a specific block from the pool (e.g. for an index region).

        Raises :class:`DeviceFullError` if the block is not currently
        pooled.
        """
        die = self.array.geometry.die_of_block(block_index)
        try:
            self._by_die[die].remove(block_index)
        except ValueError:
            raise DeviceFullError(
                f"block {block_index} is not in the free pool"
            ) from None
        self._count -= 1

    def retire(self, block_index: int) -> None:
        """Permanently withdraw a grown-defect block from allocation.

        The block is dropped from its die queue if it happens to be
        pooled (a FREE block can go bad on its first failed program) and
        recorded in :attr:`retired`; ``push`` refuses it from then on.
        Idempotent — retiring twice counts once.
        """
        if block_index in self.retired:
            return
        self.retired.add(block_index)
        die = self.array.geometry.die_of_block(block_index)
        try:
            self._by_die[die].remove(block_index)
        except ValueError:
            pass
        else:
            self._count -= 1


class AllocationStream:
    """A write frontier of ``width`` concurrently OPEN blocks.

    ``next_slot()`` rotates across the open blocks, opening replacements
    from the pool as blocks fill.  The rotation plus the pool's per-die
    queues yields die-striped programming for wide streams and
    locality-preserving programming for narrow ones.
    """

    def __init__(
        self,
        array: FlashArray,
        pool: FreeBlockPool,
        width: int,
        name: str = "",
    ) -> None:
        if width < 1:
            raise ConfigurationError(f"stream width must be >= 1, got {width}")
        if width > array.geometry.total_dies:
            width = array.geometry.total_dies
        self.array = array
        self.pool = pool
        self.width = width
        self.name = name
        # next_slot() runs once per programmed page; bind the two stable
        # lookups it needs rather than chasing them per call.
        self._blocks = array.blocks
        self._pages_per_block = array.geometry.pages_per_block
        self._open_blocks: List[Optional[int]] = [None] * width
        # Pages *handed out* per slot.  Programs complete asynchronously,
        # so allocation must count reservations, not committed pages —
        # otherwise two concurrent writers can over-commit a nearly-full
        # block.
        self._reserved_pages: List[int] = [0] * width
        self._cursor = 0

    def _refill(self, slot: int) -> int:
        """Open a fresh block for rotation slot ``slot``."""
        total_dies = self.array.geometry.total_dies
        preferred_die = (slot * total_dies) // self.width
        block_index = self.pool.pop(preferred_die)
        self.array.open_block(block_index)
        self._open_blocks[slot] = block_index
        self._reserved_pages[slot] = 0
        return block_index

    def next_slot(self) -> int:
        """Return the block index whose next page should be programmed.

        The caller performs exactly one page program (timed or primed) per
        call; this method reserves that page.  A block whose pages are all
        reserved (or that was closed externally) is replaced from the free
        pool.
        """
        slot = self._cursor
        self._cursor = (self._cursor + 1) % self.width
        block_index = self._open_blocks[slot]
        reserved = self._reserved_pages
        if (
            block_index is not None
            and reserved[slot] < self._pages_per_block
            and self._blocks[block_index].state is BlockState.OPEN
        ):
            reserved[slot] += 1
            return block_index
        block_index = self._refill(slot)
        reserved[slot] = 1
        return block_index

    def cycle_headroom(self) -> int:
        """Whole rotation cycles every open block can absorb right now.

        Zero when any slot is empty, closed externally, or fully
        reserved — callers fall back to :meth:`next_slot` for one page
        and retry.  Bulk priming uses this to find how many cycles
        :meth:`reserve_cycles` may batch without hitting a refill.
        """
        headroom = self._pages_per_block
        blocks = self._blocks
        for slot in range(self.width):
            block_index = self._open_blocks[slot]
            if block_index is None or blocks[block_index].state is not BlockState.OPEN:
                return 0
            free = self._pages_per_block - self._reserved_pages[slot]
            if free < headroom:
                headroom = free
        return headroom

    def reserve_cycles(self, cycles: int) -> List[int]:
        """Reserve ``cycles`` pages on every open block in rotation order.

        Equivalent to ``cycles * width`` calls of :meth:`next_slot` when
        :meth:`cycle_headroom` reports at least ``cycles``: the same pages
        are reserved on the same blocks and the cursor ends where it
        started (whole cycles).  Returns the blocks in rotation order
        starting at the cursor — the page-program order within each cycle.
        """
        if not 1 <= cycles <= self.cycle_headroom():
            raise ConfigurationError(
                f"cannot reserve {cycles} cycles; headroom is "
                f"{self.cycle_headroom()}"
            )
        width = self.width
        cursor = self._cursor
        order: List[int] = []
        open_blocks = self._open_blocks
        reserved = self._reserved_pages
        for offset in range(width):
            slot = (cursor + offset) % width
            block_index = open_blocks[slot]
            assert block_index is not None  # guaranteed by cycle_headroom
            reserved[slot] += cycles
            order.append(block_index)
        return order

    def open_block_indices(self) -> List[int]:
        """Currently open blocks (for occupancy accounting)."""
        return [index for index in self._open_blocks if index is not None]
