"""The block-SSD firmware personality.

:class:`BlockSSD` composes the flash array, a page-level mapping and a
segment cache over the shared :class:`~repro.ftl.core.FtlCore` substrate
(write buffer, flush workers, garbage collector) into the device the
paper uses as its baseline (Samsung PM983 with block firmware EDA53W0Q).

Host-visible semantics:

* ``write`` completes once the payload is admitted to the device DRAM
  buffer (tens of microseconds) — flash programming happens asynchronously
  behind it.  When flash plus GC cannot keep up, admission blocks and
  host-visible write latency collapses; that is the foreground-GC stall
  mechanism of Fig. 6.
* ``read`` completes after mapping lookup and flash (or buffer) access.
* ``deallocate`` (TRIM) drops mappings so GC can reclaim space without
  relocation — the reason RocksDB-on-block never triggers foreground GC in
  the paper's Fig. 6a.

Only the LBA side lives here — unit splitting, the mapping, the segment
cache, read-modify-write, and TRIM; batching, GC and telemetry are the
core's.  Sequential versus random asymmetry is *emergent*: sequential
streams hit the mapping segment cache (cheap lookups), random traffic
misses and pays a serialized metadata load, reproducing the datasheet's
~0.8x/0.6x latency relationships without hard-coded factors.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from repro.blockftl.config import (
    BUFFER_COPY_US,
    DEVICE_NAME,
    MAP_HIT_US,
    MAP_LOAD_US,
    MAP_UNIT_BYTES,
    MAP_UPDATE_HIT_US,
    MAP_UPDATE_MISS_US,
    SEGMENT_CACHE_ENTRIES,
    SEGMENT_UNITS,
    STREAM_WIDTH,
    BlockSSDConfig,
)
from repro.blockftl.mapping import UNMAPPED, PageMap, SegmentCache
from repro.errors import AddressError, ConfigurationError
from repro.faults.model import FaultInjector
from repro.flash.geometry import Geometry
from repro.flash.nand import FlashArray
from repro.ftl.core import (
    BUFFER_READ_US,
    CONTROLLER_CORES,
    HOST_INTERFACE_US,
    OVERPROVISION,
    DeviceStats,
    FlushBatch,
    FtlCore,
    GcItem,
)
from repro.nvme.command import SECTOR_BYTES
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import NULL_SPAN, Tracer


#: Process label of a host read's page reads.
_PAGE_READ = f"{DEVICE_NAME}.rd"


class BlockSSD:
    """Simulated NVMe block SSD (page-mapped FTL personality)."""

    def __init__(
        self,
        env: Environment,
        geometry: Geometry,
        config: Optional[BlockSSDConfig] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.config = config or BlockSSDConfig()
        self.stats = DeviceStats()
        #: Span tracer shared by the whole stack below this device; a
        #: disabled singleton when tracing is off, so API layers can
        #: always call ``device.tracer.op(...)``.
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.tracer.bind(env)
        self.array = FlashArray(
            env, geometry, self.stats, tracer=self.tracer,
            faults=faults,
        )

        raw_bytes = geometry.capacity_bytes
        usable = int(raw_bytes * (1.0 - OVERPROVISION))
        self.map_unit = MAP_UNIT_BYTES
        self.n_units = usable // self.map_unit
        if self.n_units < 1:
            raise ConfigurationError("geometry too small for one map unit")
        self.user_capacity_bytes = self.n_units * self.map_unit
        self.slots_per_page = geometry.page_bytes // self.map_unit

        self.pagemap = PageMap(geometry, self.map_unit, self.n_units)
        self.segment_cache = SegmentCache(SEGMENT_UNITS, SEGMENT_CACHE_ENTRIES)
        self.core = FtlCore(
            env,
            self.array,
            self,
            stream_width=STREAM_WIDTH,
            page_payload_bytes=self.slots_per_page * self.map_unit,
            user_capacity_bytes=self.user_capacity_bytes,
            spare_block_limit=self.config.spare_block_limit,
            tracer=self.tracer,
            invariants=self.config.invariants,
            name=DEVICE_NAME,
        )
        self.pool = self.core.pool
        self.buffer = self.core.buffer
        self.controller = Resource(env, CONTROLLER_CORES, name=f"{DEVICE_NAME}.ctl")
        self.map_loader = Resource(env, 1, name=f"{DEVICE_NAME}.maploader")

        #: Units buffered in device DRAM awaiting flush, oldest first, each
        #: with the arrival of its first buffered write (coalesced writes
        #: keep it).  A popped unit flies as ``(unit, sequence)``; its
        #: commit maps it only if that is still the unit's latest write.
        self._pending: "OrderedDict[int, float]" = OrderedDict()
        self._latest_sequence: Dict[int, int] = {}
        self._sequence = 0
        #: Units one buffer admission takes (see ``write``).
        self._group_units = max(
            self.slots_per_page, self.buffer.capacity_bytes // (2 * self.map_unit)
        )

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def _split_units(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Check a host byte range and split it into (unit, offset_in_unit,
        length) pieces."""
        if nbytes <= 0:
            raise AddressError(f"I/O size must be positive, got {nbytes}")
        if offset < 0 or offset + nbytes > self.user_capacity_bytes:
            raise AddressError(
                f"range [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.user_capacity_bytes}"
            )
        if offset % SECTOR_BYTES or nbytes % SECTOR_BYTES:
            raise AddressError(
                f"I/O must be {SECTOR_BYTES}B-aligned "
                f"(offset={offset}, nbytes={nbytes})"
            )
        map_unit = self.map_unit
        unit, in_unit = divmod(offset, map_unit)
        if in_unit + nbytes <= map_unit:
            return [(unit, in_unit, nbytes)]  # the common one-unit command
        pieces = [(unit, in_unit, map_unit - in_unit)]
        position = offset + map_unit - in_unit
        end = offset + nbytes
        while position < end:
            unit += 1
            pieces.append((unit, 0, min(map_unit, end - position)))
            position += map_unit
        return pieces

    # ------------------------------------------------------------------
    # host write path
    # ------------------------------------------------------------------

    def write(
        self, offset: int, nbytes: int, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Host write; completes at buffer admission (timed process).

        The commit into the flush queue happens without suspension points
        so one command's units stay adjacent in flush order — real FTLs
        keep a command's data together, and scattering it across pages
        would fan a later read of the same range across the whole array.
        ``span`` is the operation's root trace span; every suspension
        point follows one of its attribution marks.
        """
        pieces = self._split_units(offset, nbytes)
        self.core.ensure_writable()
        span.enter("controller")
        yield self.controller.serve(HOST_INTERFACE_US)

        map_unit = self.map_unit
        pagemap, pending = self.pagemap, self._pending
        controller, segment_cache = self.controller, self.segment_cache
        segment_units = segment_cache.segment_units

        # Phase 1: mapping updates and sub-unit read-modify-writes (timed).
        # Unlike lookups, mapping *updates* are journaled asynchronously
        # and do not pass through the serialized metadata loader; misses
        # still cost extra controller work.  The command pins segments it
        # already walked; its units are consecutive, so that is the last.
        walked = -1
        for unit, _in_unit, length in pieces:
            cost = MAP_UPDATE_HIT_US
            if unit // segment_units != walked:
                walked = unit // segment_units
                if not segment_cache.access(unit):
                    cost = MAP_UPDATE_MISS_US
            span.enter("index")
            yield controller.serve(cost)
            if length < map_unit and unit not in pending:
                slot_id = pagemap.lookup(unit)
                if slot_id != UNMAPPED:
                    # Sub-unit update of flash-resident data: read-modify-write.
                    block, page, _slot = pagemap.unflatten(slot_id)
                    yield from self.core.read_page(
                        block, page, map_unit, span=span
                    )

        # Phases 2+3, chunked: admit buffer space for a group of units,
        # then commit that group without suspension points.  Chunking keeps
        # each admission below buffer capacity (a whole-command admission
        # of a huge write would deadlock against its own flush) while one
        # group's units still stay adjacent in flush order.
        group_units = self._group_units
        latest = self._latest_sequence
        for start in range(0, len(pieces), group_units):
            group = pieces[start:start + group_units]
            n_group = len(group)
            span.enter("buffer")
            yield from self.buffer.admit(n_group * map_unit)
            span.enter("controller")
            yield controller.serve(BUFFER_COPY_US * n_group)
            now, sequence = self.env.now, self._sequence
            for unit, _in_unit, _length in group:
                sequence += 1
                latest[unit] = sequence
                if unit in pending:
                    # Coalesce with the not-yet-flushed copy.
                    self.buffer.drain(map_unit)
                    continue
                # The buffered copy supersedes the flash-resident one.
                old_block = pagemap.release(unit)
                if old_block != UNMAPPED:
                    self.array.invalidate(old_block, map_unit)
                pending[unit] = now
            self._sequence = sequence
            self.core.kick_flush(
                len(pending) * map_unit, went_nonempty=len(pending) <= n_group
            )
        self.stats.host_writes += 1
        self.stats.host_write_bytes += nbytes

    # ------------------------------------------------------------------
    # host read path
    # ------------------------------------------------------------------

    def read(
        self, offset: int, nbytes: int, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Host read (timed process)."""
        pieces = self._split_units(offset, nbytes)
        span.enter("controller")
        yield self.controller.serve(HOST_INTERFACE_US)
        pagemap, pending = self.pagemap, self._pending
        controller, segment_cache = self.controller, self.segment_cache
        segment_units = segment_cache.segment_units
        slots_per_page = self.slots_per_page
        # Bytes to read per flat page number, in first-touch order.
        page_reads: Dict[int, int] = {}
        walked = -1  # as in ``write``: the command pins its last segment
        for unit, _in_unit, length in pieces:
            hit = True
            if unit // segment_units != walked:
                walked = unit // segment_units
                hit = segment_cache.access(unit)
            span.enter("index")
            yield controller.serve(MAP_HIT_US)
            if not hit:
                yield self.map_loader.serve(MAP_LOAD_US)
            if unit in pending:
                span.enter("controller")
                yield controller.serve(BUFFER_READ_US)
                continue
            slot_id = pagemap.lookup(unit)
            if slot_id == UNMAPPED:
                # Reading never-written space: served from controller only.
                span.enter("controller")
                yield controller.serve(BUFFER_READ_US)
                continue
            flat_page = slot_id // slots_per_page
            page_reads[flat_page] = page_reads.get(flat_page, 0) + length
        if page_reads:
            pages_per_block = pagemap.geometry.pages_per_block
            procs = []
            for flat_page, length in page_reads.items():
                block, page = divmod(flat_page, pages_per_block)
                procs.append(self.env.process(
                    self.core.read_page(block, page, length), name=_PAGE_READ
                ))
            # Parallel page reads share the op's flash phase, so any
            # retry time lands there too (per-page recovery attribution
            # would require splitting the all_of wait).
            span.enter("flash")
            yield self.env.all_of(procs)
        self.stats.host_reads += 1
        self.stats.host_read_bytes += nbytes

    # ------------------------------------------------------------------
    # deallocate (TRIM)
    # ------------------------------------------------------------------

    def deallocate(
        self, offset: int, nbytes: int, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Drop mappings for fully covered units (timed, cheap)."""
        pieces = self._split_units(offset, nbytes)
        span.enter("controller")
        yield self.controller.serve(
            HOST_INTERFACE_US + 0.05 * len(pieces)
        )
        map_unit, pagemap = self.map_unit, self.pagemap
        pending, latest = self._pending, self._latest_sequence
        for unit, _in_unit, length in pieces:
            if length != map_unit:
                continue  # partial-unit trims are advisory no-ops
            if pending.pop(unit, None) is not None:
                self.buffer.drain(map_unit)
            # Also when a flush has already taken the unit: its commit
            # must see the copy superseded, not map it back in.
            latest.pop(unit, None)
            old_block = pagemap.release(unit)
            if old_block != UNMAPPED:
                self.array.invalidate(old_block, map_unit)

    # ------------------------------------------------------------------
    # FtlCore personality hooks: write pipeline
    # ------------------------------------------------------------------

    def live_bytes(self) -> int:
        return self.pagemap.mapped_units * self.map_unit

    def peek_flush(self) -> Optional[Tuple[int, float]]:
        if not self._pending:
            return None
        oldest_arrival_us = next(iter(self._pending.values()))
        return len(self._pending) * self.map_unit, oldest_arrival_us

    def pop_flush_batch(self) -> Optional[FlushBatch]:
        batch: List[Tuple[int, int]] = []
        pending, latest = self._pending, self._latest_sequence
        while pending and len(batch) < self.slots_per_page:
            unit, _arrival_us = pending.popitem(last=False)
            batch.append((unit, latest[unit]))
        if not batch:
            return None
        nbytes = len(batch) * self.map_unit
        transfer = (
            self.array.geometry.page_bytes
            if len(batch) == self.slots_per_page
            else nbytes
        )
        return FlushBatch(items=batch, payload_bytes=nbytes, transfer_bytes=transfer)

    def commit_flush(self, batch: FlushBatch, block: int, page: int) -> None:
        latest, pagemap, array = self._latest_sequence, self.pagemap, self.array
        map_unit = self.map_unit
        for slot, (unit, sequence) in enumerate(batch.items):
            if latest.get(unit) != sequence:
                # Superseded while in flight: programmed copy is dead.
                array.invalidate(block, map_unit)
                continue
            old_block = pagemap.bind(unit, block, page, slot)
            if old_block != UNMAPPED:
                array.invalidate(old_block, map_unit)
            del latest[unit]

    def drain(self) -> Generator[Event, None, None]:
        """Wait until all buffered writes have reached flash."""
        yield from self.core.drain()

    def close(self) -> None:
        """End the core's workers (see :meth:`FtlCore.close`) and empty the
        flash queues."""
        self.core.close()
        self.array.close()

    # ------------------------------------------------------------------
    # FtlCore personality hooks: garbage collection
    # ------------------------------------------------------------------

    def gc_eligible(self, block_index: int) -> bool:
        return True

    def gc_census(self, victim: int) -> List[GcItem]:
        # ``slot_id`` here is pure arithmetic on the physical location, so
        # the expected mapping captured in ``ident`` is time-invariant —
        # a unit overwritten or trimmed mid-GC simply stops matching.
        return [
            GcItem(
                (unit, self.pagemap.slot_id(victim, page, slot)),
                page,
                self.map_unit,
            )
            for unit, page, slot in self.pagemap.live_units_in_block(victim)
        ]

    def gc_relocate(
        self, item: GcItem, victim: int, target: int, new_page: int, slot: int
    ) -> bool:
        unit, expected_slot_id = item.ident
        if self.pagemap.lookup(unit) != expected_slot_id:
            # Overwritten or trimmed while GC was in flight.
            return False
        self.pagemap.bind(unit, target, new_page, slot)
        return True

    def gc_cleanup(self, victim: int) -> None:
        # The page map carries all block-personality state; nothing to do.
        pass

    def mapping_view(self) -> Iterator[Tuple[object, int, int, int]]:
        # Invariant-checker ground truth: every mapped unit, identified
        # by its (unique) logical unit number.
        for unit, block, page, _slot in self.pagemap.iter_mapped():
            yield unit, block, page, self.map_unit

    # ------------------------------------------------------------------
    # experiment priming
    # ------------------------------------------------------------------

    def prime_sequential_fill(self, n_units: int, start_unit: int = 0) -> None:
        """Untimed sequential fill of ``n_units`` map units from ``start_unit``.

        State-identical to issuing sequential writes and draining, minus
        the simulated time.  Used to set up occupancy before a measured
        phase (Figs. 3 and 6).
        """
        if start_unit < 0 or start_unit + n_units > self.n_units:
            raise AddressError(
                f"prime range [{start_unit}, {start_unit + n_units}) outside "
                f"{self.n_units} units"
            )
        pagemap = self.pagemap
        spp = self.slots_per_page
        pages_per_block = pagemap.geometry.pages_per_block
        stream = self.core.write_stream
        next_slot = stream.next_slot
        prime_program = self.array.prime_program
        prime_program_run = self.array.prime_program_run
        page_bytes = spp * self.map_unit
        width = stream.width
        unit = start_unit
        remaining = n_units
        while remaining >= spp:
            # Batch whole rotation cycles: reserve one page per open block
            # per cycle, commit each block's page run at once, and bind the
            # whole batch's mappings with one vectorized call.  The blocks,
            # pages, and bind order are identical to the per-page path.
            cycles = min(stream.cycle_headroom(), (remaining // spp) // width)
            if cycles >= 1:
                blocks_cycle = stream.reserve_cycles(cycles)
                starts = [
                    prime_program_run(block, cycles, page_bytes)
                    for block in blocks_cycle
                ]
                first_pages = (
                    np.asarray(blocks_cycle, dtype=np.int64) * pages_per_block
                    + np.asarray(starts, dtype=np.int64)
                )
                bases = (
                    first_pages[None, :]
                    + np.arange(cycles, dtype=np.int64)[:, None]
                ).ravel() * spp
                old_slots = pagemap.bind_full_pages(unit, bases)
                self._invalidate_stale(old_slots)
                unit += cycles * width * spp
                remaining -= cycles * width * spp
                continue
            # Per-page path: rotation boundaries (a block about to close).
            block = next_slot()
            page = prime_program(block, page_bytes)
            bases = np.asarray(
                [(block * pages_per_block + page) * spp], dtype=np.int64
            )
            old_slots = pagemap.bind_full_pages(unit, bases)
            self._invalidate_stale(old_slots)
            unit += spp
            remaining -= spp
        if remaining:
            block = next_slot()
            page = prime_program(block, remaining * self.map_unit)
            old_slots = pagemap.bind_range(unit, remaining, block, page)
            self._invalidate_stale(old_slots)

    def _invalidate_stale(self, old_slots: "np.ndarray") -> None:
        """Invalidate overwritten copies, aggregated per old block.

        The aggregate per-block byte decrement equals the per-unit
        sequence of ``invalidate`` calls, so the resulting flash state is
        identical.
        """
        stale = old_slots[old_slots != UNMAPPED]
        if not stale.size:
            return
        slots_per_block = self.pagemap.slots_per_page * self.pagemap.geometry.pages_per_block
        old_blocks, counts = np.unique(stale // slots_per_block, return_counts=True)
        for old_block, n in zip(old_blocks.tolist(), counts.tolist()):
            self.array.invalidate(int(old_block), int(n) * self.map_unit)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def occupied_bytes(self) -> int:
        """Device bytes currently holding live host data."""
        return self.core.occupied_bytes

    def occupancy_fraction(self) -> float:
        """Live data as a fraction of user capacity."""
        return self.core.occupancy_fraction()

    def free_block_count(self) -> int:
        """Erased blocks available for allocation."""
        return self.core.free_block_count()
