"""Logical-to-physical mapping structures for the block personality.

:class:`PageMap` is a page-level (4 KiB-unit) mapping held entirely in
device DRAM, as on real enterprise drives — this DRAM residency is why the
paper's Fig. 3 shows block-SSD latency flat in occupancy while the KV
index degrades.  Forward and reverse tables are dense ``numpy`` int32
arrays, 4 bytes an entry, so multi-million-unit fills stay cheap in host
memory.

:class:`SegmentCache` models the controller's hot window over the mapping
table: lookups within recently touched segments are cheap; lookups outside
pay a serialized metadata load.  Sequential streams stay inside one
segment, random traffic thrashes — the mechanism behind the block device's
sequential-access advantage.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import AddressError, ConfigurationError
from repro.flash.geometry import Geometry

#: Sentinel for "unmapped" in both tables.
UNMAPPED = -1
#: Largest unit or slot count a table entry can name: entries are int32
#: (the paper's 3.84 TB drive at 4 KiB units is 9.4e8 slots).
_INDEX_MAX = 2**31 - 1


class PageMap:
    """Dense forward (unit -> slot) and reverse (slot -> unit) mapping.

    A *slot* is a map-unit-sized region of a flash page, numbered flat:
    ``slot_id = (block * pages_per_block + page) * slots_per_page + slot``.
    """

    def __init__(self, geometry: Geometry, map_unit_bytes: int, n_units: int) -> None:
        if geometry.page_bytes % map_unit_bytes != 0:
            raise ConfigurationError(
                f"page size {geometry.page_bytes} not a multiple of map unit "
                f"{map_unit_bytes}"
            )
        if n_units < 1:
            raise ConfigurationError(f"n_units must be >= 1, got {n_units}")
        self.geometry = geometry
        self.map_unit_bytes = map_unit_bytes
        self.n_units = n_units
        self.slots_per_page = geometry.page_bytes // map_unit_bytes
        total_slots = geometry.total_pages * self.slots_per_page
        if max(n_units, total_slots) > _INDEX_MAX:
            raise ConfigurationError(
                f"{n_units} units over {total_slots} slots overflow the "
                f"page map's 32-bit entries (max {_INDEX_MAX})"
            )
        self._forward = np.full(n_units, UNMAPPED, dtype=np.int32)
        self._reverse = np.full(total_slots, UNMAPPED, dtype=np.int32)
        self._mapped_units = 0

    # -- slot arithmetic -----------------------------------------------------

    def slot_id(self, block: int, page: int, slot: int) -> int:
        """Flatten a (block, page, slot) triple."""
        self.geometry.check_page(block, page)
        if not 0 <= slot < self.slots_per_page:
            raise AddressError(f"slot {slot} out of range [0,{self.slots_per_page})")
        return (block * self.geometry.pages_per_block + page) * self.slots_per_page + slot

    def unflatten(self, slot_id: int) -> Tuple[int, int, int]:
        """Inverse of :meth:`slot_id`."""
        page_flat, slot = divmod(slot_id, self.slots_per_page)
        block, page = divmod(page_flat, self.geometry.pages_per_block)
        return block, page, slot

    # -- mapping operations ----------------------------------------------------

    @property
    def mapped_units(self) -> int:
        """Number of units currently holding a valid mapping."""
        return self._mapped_units

    def lookup(self, unit: int) -> int:
        """Forward lookup; returns flat slot id or UNMAPPED."""
        self._check_unit(unit)
        return int(self._forward[unit])

    def is_mapped(self, unit: int) -> bool:
        """Whether the unit currently points at a flash slot."""
        return self.lookup(unit) != UNMAPPED

    def bind(self, unit: int, block: int, page: int, slot: int) -> None:
        """Point ``unit`` at a physical slot (unbinding any prior mapping)."""
        self._check_unit(unit)
        new_slot = self.slot_id(block, page, slot)
        if self._reverse[new_slot] != UNMAPPED:
            raise AddressError(
                f"slot {new_slot} already holds unit {self._reverse[new_slot]}"
            )
        old_slot = self._forward[unit]
        if old_slot != UNMAPPED:
            self._reverse[old_slot] = UNMAPPED
        else:
            self._mapped_units += 1
        self._forward[unit] = new_slot
        self._reverse[new_slot] = unit

    def bind_range(self, unit_start: int, count: int, block: int, page: int) -> np.ndarray:
        """Bind ``count`` consecutive units to slots ``0..count-1`` of a page.

        Vectorized equivalent of ``count`` sequential :meth:`bind` calls
        (unit ``unit_start + i`` -> slot ``i``), the shape every
        sequential fill produces.  Returns the array of *previous* slot
        ids (``UNMAPPED`` where the unit was unbound) so callers can
        invalidate stale copies — aggregated per old block rather than
        one call per unit, which is state-identical.
        """
        if count < 1 or count > self.slots_per_page:
            raise AddressError(
                f"bind_range count {count} out of range [1, {self.slots_per_page}]"
            )
        self._check_unit(unit_start)
        self._check_unit(unit_start + count - 1)
        self.geometry.check_page(block, page)
        base = (block * self.geometry.pages_per_block + page) * self.slots_per_page
        forward = self._forward
        reverse = self._reverse
        target = reverse[base:base + count]
        if np.any(target != UNMAPPED):
            offset = int(np.argmax(target != UNMAPPED))
            raise AddressError(
                f"slot {base + offset} already holds unit {target[offset]}"
            )
        old_slots = forward[unit_start:unit_start + count].copy()
        prior = old_slots != UNMAPPED
        n_prior = int(np.count_nonzero(prior))
        if n_prior:
            reverse[old_slots[prior]] = UNMAPPED
        new_slots = np.arange(base, base + count, dtype=np.int32)
        forward[unit_start:unit_start + count] = new_slots
        reverse[base:base + count] = np.arange(
            unit_start, unit_start + count, dtype=np.int32
        )
        self._mapped_units += count - n_prior
        return old_slots

    def bind_full_pages(self, unit_start: int, page_bases: np.ndarray) -> np.ndarray:
        """Bind a run of consecutive units across many *full* pages at once.

        ``page_bases`` holds the flat slot id of slot 0 for each page (in
        program order); every page takes ``slots_per_page`` consecutive
        units.  Equivalent to ``bind_range`` per page, batched so a
        multi-hundred-thousand-unit fill costs a handful of numpy ops
        instead of one Python call per page.  Returns the previous slot
        ids for the whole run (``UNMAPPED`` where unbound).
        """
        spp = self.slots_per_page
        n = int(page_bases.size) * spp
        if n == 0:
            return np.empty(0, dtype=np.int32)
        self._check_unit(unit_start)
        self._check_unit(unit_start + n - 1)
        forward = self._forward
        reverse = self._reverse
        new_slots = (
            page_bases[:, None] + np.arange(spp, dtype=np.int32)
        ).ravel()
        target = reverse[new_slots]
        occupied = target != UNMAPPED
        if occupied.any():
            offset = int(np.argmax(occupied))
            raise AddressError(
                f"slot {int(new_slots[offset])} already holds unit "
                f"{target[offset]}"
            )
        old_slots = forward[unit_start:unit_start + n].copy()
        prior = old_slots != UNMAPPED
        n_prior = int(np.count_nonzero(prior))
        if n_prior:
            reverse[old_slots[prior]] = UNMAPPED
        forward[unit_start:unit_start + n] = new_slots
        reverse[new_slots] = np.arange(
            unit_start, unit_start + n, dtype=np.int32
        )
        self._mapped_units += n - n_prior
        return old_slots

    def unbind(self, unit: int) -> int:
        """Remove the unit's mapping; returns the freed slot id.

        Raises :class:`AddressError` if the unit was not mapped.
        """
        self._check_unit(unit)
        old_slot = int(self._forward[unit])
        if old_slot == UNMAPPED:
            raise AddressError(f"unit {unit} is not mapped")
        self._forward[unit] = UNMAPPED
        self._reverse[old_slot] = UNMAPPED
        self._mapped_units -= 1
        return old_slot

    def unit_at(self, slot_id: int) -> int:
        """Reverse lookup; returns the unit stored at a slot or UNMAPPED."""
        return int(self._reverse[slot_id])

    def iter_mapped(self) -> Iterator[Tuple[int, int, int, int]]:
        """All live (unit, block, page, slot) mappings, physical order.

        The invariant checker's ground truth; O(total slots) per call,
        so it is meant for debug/test passes, not hot paths.
        """
        for slot_id in np.nonzero(self._reverse != UNMAPPED)[0]:
            block, page, slot = self.unflatten(int(slot_id))
            yield int(self._reverse[slot_id]), block, page, slot

    def live_units_in_block(self, block: int) -> List[Tuple[int, int, int]]:
        """All live (unit, page, slot) triples within ``block`` — GC's view."""
        self.geometry.check_block(block)
        per_block = self.geometry.pages_per_block * self.slots_per_page
        start = block * per_block
        region = self._reverse[start:start + per_block]
        live: List[Tuple[int, int, int]] = []
        for offset in np.nonzero(region != UNMAPPED)[0]:
            page, slot = divmod(int(offset), self.slots_per_page)
            live.append((int(region[offset]), page, slot))
        return live

    def _check_unit(self, unit: int) -> None:
        if not 0 <= unit < self.n_units:
            raise AddressError(f"map unit {unit} out of range [0, {self.n_units})")


class SegmentCache:
    """LRU cache of mapping-table segments the controller keeps hot."""

    def __init__(self, segment_units: int, entries: int) -> None:
        if segment_units < 1 or entries < 1:
            raise ConfigurationError("segment cache parameters must be >= 1")
        self.segment_units = segment_units
        self.entries = entries
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def segment_of(self, unit: int) -> int:
        """Mapping-table segment covering ``unit``."""
        return unit // self.segment_units

    def access(self, unit: int) -> bool:
        """Touch the segment containing ``unit``; True on cache hit."""
        segment = self.segment_of(unit)
        if segment in self._lru:
            self._lru.move_to_end(segment)
            self.hits += 1
            return True
        self.misses += 1
        self._lru[segment] = None
        if len(self._lru) > self.entries:
            self._lru.popitem(last=False)
        return False

    def hit_rate(self) -> float:
        """Fraction of accesses that hit, 0.0 when untouched."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total
