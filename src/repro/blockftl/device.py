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
from dataclasses import dataclass
from typing import Dict, Generator, Iterator, List, Optional, Tuple

import numpy as np

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.mapping import UNMAPPED, PageMap, SegmentCache
from repro.errors import AddressError, ConfigurationError
from repro.faults.model import FaultInjector
from repro.flash.geometry import Geometry
from repro.flash.nand import FlashArray
from repro.flash.timing import FlashTiming
from repro.ftl.core import DeviceStats, FlushBatch, FtlCore, GcItem
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import NULL_SPAN, Tracer


@dataclass
class _PendingUnit:
    """A dirty map unit buffered in device DRAM awaiting flush."""

    unit: int
    arrival_us: float
    sequence: int


class BlockSSD:
    """Simulated NVMe block SSD (page-mapped FTL personality)."""

    def __init__(
        self,
        env: Environment,
        geometry: Geometry,
        timing: Optional[FlashTiming] = None,
        config: Optional[BlockSSDConfig] = None,
        name: str = "block-ssd",
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.config = config or BlockSSDConfig()
        self.timing = timing or FlashTiming()
        self.stats = DeviceStats()
        #: Span tracer shared by the whole stack below this device; a
        #: disabled singleton when tracing is off, so API layers can
        #: always call ``device.tracer.op(...)``.
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self.tracer.bind(env)
        self.array = FlashArray(
            env, geometry, self.timing, self.stats, tracer=self.tracer,
            faults=faults,
        )

        raw_bytes = geometry.capacity_bytes
        usable = int(raw_bytes * (1.0 - self.config.overprovision))
        self.map_unit = self.config.map_unit_bytes
        self.n_units = usable // self.map_unit
        if self.n_units < 1:
            raise ConfigurationError("geometry too small for one map unit")
        self.user_capacity_bytes = self.n_units * self.map_unit
        self.slots_per_page = geometry.page_bytes // self.map_unit

        self.pagemap = PageMap(geometry, self.map_unit, self.n_units)
        self.segment_cache = SegmentCache(
            self.config.segment_units, self.config.segment_cache_entries
        )
        self.core = FtlCore(
            env,
            self.array,
            self,
            stream_width=self.config.stream_width,
            write_buffer_bytes=self.config.write_buffer_bytes,
            flush_linger_us=self.config.flush_linger_us,
            gc_threshold_fraction=self.config.gc_threshold_fraction,
            gc_reserve_blocks=self.config.gc_reserve_blocks,
            page_payload_bytes=self.slots_per_page * self.map_unit,
            user_capacity_bytes=self.user_capacity_bytes,
            spare_block_limit=self.config.spare_block_limit,
            tracer=self.tracer,
            invariants=self.config.invariants,
            name=name,
        )
        self.pool = self.core.pool
        self.buffer = self.core.buffer
        self.controller = Resource(
            env, self.config.controller_cores, name=f"{name}.ctl"
        )
        self.map_loader = Resource(env, 1, name=f"{name}.maploader")

        self._pending: "OrderedDict[int, _PendingUnit]" = OrderedDict()
        self._latest_sequence: Dict[int, int] = {}
        self._sequence = 0

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------

    def _check_range(self, offset: int, nbytes: int) -> None:
        if nbytes <= 0:
            raise AddressError(f"I/O size must be positive, got {nbytes}")
        if offset < 0 or offset + nbytes > self.user_capacity_bytes:
            raise AddressError(
                f"range [{offset}, {offset + nbytes}) outside device "
                f"capacity {self.user_capacity_bytes}"
            )
        if offset % self.config.sector_bytes or nbytes % self.config.sector_bytes:
            raise AddressError(
                f"I/O must be {self.config.sector_bytes}B-aligned "
                f"(offset={offset}, nbytes={nbytes})"
            )

    def _split_units(self, offset: int, nbytes: int) -> List[Tuple[int, int, int]]:
        """Split a byte range into (unit, offset_in_unit, length) pieces."""
        pieces: List[Tuple[int, int, int]] = []
        position = offset
        end = offset + nbytes
        while position < end:
            unit = position // self.map_unit
            in_unit = position % self.map_unit
            length = min(self.map_unit - in_unit, end - position)
            pieces.append((unit, in_unit, length))
            position += length
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
        self._check_range(offset, nbytes)
        self.core.ensure_writable()
        span.enter("controller")
        yield self.controller.serve(self.config.host_interface_us)
        pieces = self._split_units(offset, nbytes)

        # Phase 1: mapping updates and sub-unit read-modify-writes (timed).
        # Unlike lookups, mapping *updates* are journaled asynchronously
        # and do not pass through the serialized metadata loader; misses
        # still cost extra controller work.
        seen_segments = set()
        for unit, _in_unit, length in pieces:
            segment = self.segment_cache.segment_of(unit)
            if segment in seen_segments:
                hit = True  # the command pins segments it already walked
            else:
                seen_segments.add(segment)
                hit = self.segment_cache.access(unit)
            cost = (
                self.config.map_update_hit_us
                if hit
                else self.config.map_update_miss_us
            )
            span.enter("index")
            yield self.controller.serve(cost)
            partial = length < self.map_unit
            slot_id = self.pagemap.lookup(unit)
            if partial and slot_id != UNMAPPED and unit not in self._pending:
                # Sub-unit update of flash-resident data: read-modify-write.
                block, page, _slot = self.pagemap.unflatten(slot_id)
                yield from self.core.read_page(
                    block, page, self.map_unit, span=span
                )

        # Phases 2+3, chunked: admit buffer space for a group of units,
        # then commit that group without suspension points.  Chunking keeps
        # each admission below buffer capacity (a whole-command admission
        # of a huge write would deadlock against its own flush) while one
        # group's units still stay adjacent in flush order.
        group_units = max(
            self.slots_per_page,
            self.buffer.capacity_bytes // (2 * self.map_unit),
        )
        for start in range(0, len(pieces), group_units):
            group = pieces[start:start + group_units]
            span.enter("buffer")
            yield from self.buffer.admit(len(group) * self.map_unit)
            span.enter("controller")
            yield self.controller.serve(
                self.config.buffer_copy_us * len(group)
            )
            for unit, _in_unit, _length in group:
                self._sequence += 1
                entry = self._pending.get(unit)
                if entry is not None:
                    # Coalesce with the not-yet-flushed copy.
                    self.buffer.drain(self.map_unit)
                    entry.sequence = self._sequence
                    self._latest_sequence[unit] = self._sequence
                    continue
                slot_id = self.pagemap.lookup(unit)
                if slot_id != UNMAPPED:
                    # The buffered copy supersedes the flash-resident one.
                    block, _page, _slot = self.pagemap.unflatten(slot_id)
                    self.pagemap.unbind(unit)
                    self.array.invalidate(block, self.map_unit)
                self._pending[unit] = _PendingUnit(
                    unit, self.env.now, self._sequence
                )
                self._latest_sequence[unit] = self._sequence
            self.core.kick_flush(
                len(self._pending) * self.map_unit,
                went_nonempty=len(self._pending) <= len(group),
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
        self._check_range(offset, nbytes)
        span.enter("controller")
        yield self.controller.serve(self.config.host_interface_us)
        page_reads: Dict[Tuple[int, int], int] = {}
        seen_segments = set()
        for unit, _in_unit, length in self._split_units(offset, nbytes):
            segment = self.segment_cache.segment_of(unit)
            if segment in seen_segments:
                hit = True  # the command pins segments it already walked
            else:
                seen_segments.add(segment)
                hit = self.segment_cache.access(unit)
            span.enter("index")
            yield self.controller.serve(self.config.map_hit_us)
            if not hit:
                yield self.map_loader.serve(self.config.map_load_us)
            if unit in self._pending:
                span.enter("controller")
                yield self.controller.serve(self.config.buffer_read_us)
                continue
            slot_id = self.pagemap.lookup(unit)
            if slot_id == UNMAPPED:
                # Reading never-written space: served from controller only.
                span.enter("controller")
                yield self.controller.serve(self.config.buffer_read_us)
                continue
            block, page, _slot = self.pagemap.unflatten(slot_id)
            key = (block, page)
            page_reads[key] = page_reads.get(key, 0) + length
        if page_reads:
            procs = [
                self.env.process(
                    self.core.read_page(block, page, length),
                    name=f"{self.name}.rd",
                )
                for (block, page), length in page_reads.items()
            ]
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
        self._check_range(offset, nbytes)
        pieces = self._split_units(offset, nbytes)
        span.enter("controller")
        yield self.controller.serve(
            self.config.host_interface_us + 0.05 * len(pieces)
        )
        for unit, in_unit, length in pieces:
            if in_unit != 0 or length != self.map_unit:
                continue  # partial-unit trims are advisory no-ops
            if unit in self._pending:
                del self._pending[unit]
                self._latest_sequence.pop(unit, None)
                self.buffer.drain(self.map_unit)
            slot_id = self.pagemap.lookup(unit)
            if slot_id != UNMAPPED:
                block, _page, _slot = self.pagemap.unflatten(slot_id)
                self.pagemap.unbind(unit)
                self.array.invalidate(block, self.map_unit)

    # ------------------------------------------------------------------
    # FtlCore personality hooks: write pipeline
    # ------------------------------------------------------------------

    def live_bytes(self) -> int:
        return self.pagemap.mapped_units * self.map_unit

    def peek_flush(self) -> Optional[Tuple[int, float]]:
        if not self._pending:
            return None
        oldest = next(iter(self._pending.values()))
        return len(self._pending) * self.map_unit, oldest.arrival_us

    def pop_flush_batch(self) -> Optional[FlushBatch]:
        batch: List[_PendingUnit] = []
        while self._pending and len(batch) < self.slots_per_page:
            _unit, entry = self._pending.popitem(last=False)
            batch.append(entry)
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
        for slot, entry in enumerate(batch.items):
            if self._latest_sequence.get(entry.unit) != entry.sequence:
                # Superseded while in flight: programmed copy is dead.
                self.array.invalidate(block, self.map_unit)
                continue
            slot_id = self.pagemap.lookup(entry.unit)
            if slot_id != UNMAPPED:
                old_block, _p, _s = self.pagemap.unflatten(slot_id)
                self.pagemap.unbind(entry.unit)
                self.array.invalidate(old_block, self.map_unit)
            self.pagemap.bind(entry.unit, block, page, slot)
            del self._latest_sequence[entry.unit]

    def drain(self) -> Generator[Event, None, None]:
        """Wait until all buffered writes have reached flash."""
        yield from self.core.drain()

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
        self.pagemap.unbind(unit)
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
