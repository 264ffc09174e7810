"""The shared FTL device core: GC engine, write pipeline, telemetry.

The paper's methodology is to run two firmware personalities — KV and
block — on *identical* hardware so every observed difference is
attributable to FTL policy, not substrate.  :class:`FtlCore` is the code
form of that guarantee: a single implementation of everything both
personalities must share —

* the **garbage-collection engine** — greedy victim selection
  (:mod:`repro.ftl.victim`), the over-provisioning watermark that
  triggers background collection, and the ``block_allowance``
  foreground/background arbitration that produces the paper's Fig. 6
  stall troughs;
* the **write pipeline** — flush workers that batch buffered payloads
  into page programs, linger-timer aging for partial batches, and the
  ``drain()`` barrier experiments use between setup and measurement;
* **telemetry** — :class:`DeviceStats`, the one record every device
  counter is written to: the flash array, the write buffer, the core and
  the personality all bump the same fields, so figures and benchmarks
  never read personality-specific attributes.

A personality plugs in only what genuinely differs (blob packing and a
hash index for KV; LBA mapping and sector batching for block) by
implementing a small duck-typed hook protocol:

``live_bytes() -> int``
    Bytes of live host data (occupancy accounting).
``peek_flush() -> Optional[Tuple[int, float]]``
    ``(pending_bytes, oldest_arrival_us)`` of queued payloads, or
    ``None`` when nothing awaits flushing.
``pop_flush_batch() -> Optional[FlushBatch]``
    Remove up to one page worth of queued payloads, in arrival order.
``commit_flush(batch, block, page) -> None``
    Bind a programmed batch into the personality's mapping; payloads
    superseded while in flight must be invalidated against ``block``.
``gc_eligible(block_index) -> bool``
    Whether GC may collect the block (KV fences its index region).
``gc_census(victim) -> List[GcItem]``
    Live payloads residing in the victim at collection start.
``gc_relocate(item, victim, target, new_page, slot) -> bool``
    Rebind one payload to its relocated copy; return ``False`` if the
    payload died between census and program (the core then accounts the
    relocated copy dead instead).
``gc_cleanup(victim) -> None``
    Personality bookkeeping after relocation, before the erase.
``mapping_view() -> Iterable[Tuple[object, int, int, int]]``
    Every live mapping entry as ``(ident, block, page, nbytes)`` — the
    runtime invariant checker's ground truth (only consulted when the
    device is built with ``invariants=True``).

Adding a third personality (ZNS, host-managed FTL, ...) means
implementing these nine hooks — not forking the engine.

**Runtime invariants** (``invariants=True``): after every GC cycle,
defective-block retirement, and flush drain the core cross-checks the
personality's mapping against the flash array and the free pool — no
ident mapped twice, per-block valid bytes equal to the mapping's view,
and page/pool conservation (FREE blocks exactly the pooled ones, valid
bytes never exceeding programmed payload capacity).  Violations raise
:class:`~repro.errors.InvariantViolation`.  The check is O(live data)
per call, so it is a debug/test mode, not a production default.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from repro.errors import (
    ConfigurationError,
    DeviceReadOnlyError,
    EraseFailError,
    InvariantViolation,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.faults.model import MAX_READ_RETRIES, READ_RETRY_BACKOFF_US, ReadResult
from repro.flash.nand import BlockState, FlashArray
from repro.ftl.pool import AllocationStream, FreeBlockPool
from repro.ftl.victim import greedy_victim
from repro.ftl.writebuffer import WriteBuffer
from repro.sim.engine import Environment, Event, Process
from repro.sim.signal import Signal
from repro.trace.tracer import NULL_SPAN, Tracer
from repro.units import MIB, ceil_div


# -- values both personalities state: one controller on one drive ---------

#: Fraction of raw capacity hidden as over-provisioning.
OVERPROVISION = 0.07
#: Controller cores available for command processing.
CONTROLLER_CORES = 8
#: Device DRAM write buffer.
WRITE_BUFFER_BYTES = 1 * MIB
#: Background-GC trigger: free blocks below this fraction of all blocks.
GC_THRESHOLD_FRACTION = 0.08
#: Free blocks reserved for GC's own allocations (user flush waits below
#: this floor — the foreground-GC stall point).
GC_RESERVE_BLOCKS = 4
#: Fixed command handling per NVMe command (decode, DMA setup).
HOST_INTERFACE_US = 2.0
#: Serving a read straight from the DRAM write buffer.
BUFFER_READ_US = 3.0
#: Idle time after which a partial page is flushed anyway.
FLUSH_LINGER_US = 500.0


@dataclass
class DeviceStats:
    """The device's counters (the simulator's S.M.A.R.T. / NVMe-CLI log).

    The one record of every device counter, each written once, where it
    happens: host traffic and index I/O by the personality, GC and
    recovery by the core, timed flash operations by the
    :class:`~repro.flash.nand.FlashArray`, admission stalls by the
    :class:`~repro.ftl.writebuffer.WriteBuffer`.  Experiments snapshot it
    around a measured phase and report the delta; ``snapshot``/``delta``
    walk the fields, so a new counter needs no edit there.
    """

    # -- host traffic and GC ------------------------------------------------
    host_reads: int = 0
    host_writes: int = 0
    host_read_bytes: int = 0
    host_write_bytes: int = 0
    gc_runs: int = 0
    foreground_gc_runs: int = 0
    gc_relocated_bytes: int = 0
    gc_erased_blocks: int = 0
    index_flash_reads: int = 0
    index_flash_writes: int = 0
    #: (time_us, was_foreground) for every GC run, for time-series overlays.
    gc_events: List[Tuple[float, bool]] = field(default_factory=list)
    # -- space accounting (Fig. 7's SAF) ----------------------------------
    app_key_bytes: int = 0
    app_value_bytes: int = 0
    device_bytes: int = 0
    # -- timed flash operations ------------------------------------------
    flash_reads: int = 0
    flash_programs: int = 0
    flash_erases: int = 0
    #: Summed service time of timed flash ops (die + channel occupancy);
    #: cross-checks the trace subsystem's flash timeline spans.
    flash_busy_us: float = 0.0
    # -- stall telemetry --------------------------------------------------
    #: Time host writers spent blocked on buffer admission.
    buffer_stall_us: float = 0.0
    #: Flush/GC waits on the free-block floor (count and total time).
    allowance_stalls: int = 0
    allowance_stall_us: float = 0.0
    #: Victim block index per GC run, aligned with ``gc_events``.
    gc_victims: List[int] = field(default_factory=list)
    # -- reliability / recovery -------------------------------------------
    #: Read-retry steps issued (each costs a backoff plus a re-read).
    read_retries: int = 0
    #: Reads that needed retries but ultimately returned good data.
    corrected_reads: int = 0
    #: Reads that stayed bad through every retry (host-visible media error).
    uncorrectable_reads: int = 0
    #: Page programs that failed their status check.
    program_fails: int = 0
    #: Block erases that failed (the block is retired).
    erase_fails: int = 0
    #: Failed programs redirected to a fresh block.
    reallocations: int = 0
    #: Grown-defect blocks permanently withdrawn from allocation.
    retired_blocks: int = 0
    #: Time spent in media-error recovery (retries, backoff, reprograms).
    recovery_us: float = 0.0

    def snapshot(self) -> "DeviceStats":
        """Copy for before/after deltas (lists are shallow-copied)."""
        return self.delta(DeviceStats())

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counter difference ``self - earlier``.

        Event lists keep only the entries recorded after ``earlier`` was
        snapshotted (appends-only semantics).
        """
        diff = DeviceStats()
        for spec in fields(self):
            value = getattr(self, spec.name)
            before = getattr(earlier, spec.name)
            if isinstance(value, list):
                setattr(diff, spec.name, value[len(before):])
            else:
                setattr(diff, spec.name, value - before)
        return diff

    def write_amplification(self) -> float:
        """(host + GC-relocated bytes) / host bytes; 1.0 when idle."""
        if self.host_write_bytes == 0:
            return 1.0
        moved = self.host_write_bytes + self.gc_relocated_bytes
        return moved / self.host_write_bytes

    def record_store(
        self, key_bytes: int, value_bytes: int, device_bytes: int
    ) -> None:
        """Account one stored object: application sizes vs device footprint."""
        if min(key_bytes, value_bytes, device_bytes) < 0:
            raise ValueError("space accounting sizes must be >= 0")
        self.app_key_bytes += key_bytes
        self.app_value_bytes += value_bytes
        self.device_bytes += device_bytes

    def record_remove(
        self, key_bytes: int, value_bytes: int, device_bytes: int
    ) -> None:
        """Account removal (overwrite/delete) of a stored object.

        An unmatched remove is refused before any book moves.
        """
        if (key_bytes > self.app_key_bytes or value_bytes > self.app_value_bytes
                or device_bytes > self.device_bytes):
            raise ValueError("space accounting went negative; unmatched remove")
        self.app_key_bytes -= key_bytes
        self.app_value_bytes -= value_bytes
        self.device_bytes -= device_bytes

    @property
    def app_bytes(self) -> int:
        """Application bytes: keys plus values."""
        return self.app_key_bytes + self.app_value_bytes

    def amplification(self) -> float:
        """Device bytes / application bytes (key+value denominator)."""
        if self.app_bytes == 0:
            raise ValueError("no application bytes recorded")
        return self.device_bytes / self.app_bytes

    def amplification_value_only(self) -> float:
        """Device bytes / value bytes (the paper's most pessimistic view)."""
        if self.app_value_bytes == 0:
            raise ValueError("no application value bytes recorded")
        return self.device_bytes / self.app_value_bytes

    def stall_time_us(self) -> float:
        """Total host-visible stall time (buffer + allowance waits)."""
        return self.buffer_stall_us + self.allowance_stall_us

    def summary(self) -> Dict[str, float]:
        """Headline numbers of these counters (usually a delta).

        Works for any personality, since both report through this record:

        * ``waf`` — flash writes over host writes (1.0 when no host writes);
        * ``gc_moved_mib`` — valid data relocated by GC;
        * ``foreground_gc_fraction`` — GC runs triggered with a host writer
          stalled (0.0 when GC never ran);
        * ``stall_ms`` — host time lost to write-buffer admission plus
          free-block allowance waits;
        * ``flash_busy_ms`` — summed die/channel service time across all
          flash ops (matches the trace subsystem's flash-span total).
        """
        gc_runs = self.gc_runs
        return {
            "waf": self.write_amplification(),
            "gc_moved_mib": self.gc_relocated_bytes / MIB,
            "foreground_gc_fraction": (
                self.foreground_gc_runs / gc_runs if gc_runs else 0.0
            ),
            "stall_ms": self.stall_time_us() / 1000.0,
            "flash_busy_ms": self.flash_busy_us / 1000.0,
        }


class GcItem(NamedTuple):
    """One live payload found in a GC victim during census (a tuple: one
    is built per relocated payload).

    ``ident`` is opaque to the core — the personality round-trips it back
    through ``gc_relocate`` to find and rebind its own mapping entry.
    """

    ident: object
    page: int
    nbytes: int


@dataclass
class FlushBatch:
    """One page worth of payloads popped from a personality's queue."""

    items: List[object]
    #: Live payload bytes (GC valid-byte accounting for the program).
    payload_bytes: int
    #: Bytes crossing the channel (full page, or less for partial pages).
    transfer_bytes: int


class Personality(Protocol):
    """The hook protocol a hosting personality implements for the core.

    The nine hooks the module docstring documents, as a structural type:
    any object with these methods works — both shipped personalities
    (:class:`~repro.kvftl.device.KVSSD`,
    :class:`~repro.blockftl.device.BlockSSD`) and test stubs.
    """

    def live_bytes(self) -> int:
        """Total live payload bytes across the personality's mapping."""
        ...

    def peek_flush(self) -> Optional[Tuple[int, float]]:
        """(pending bytes, age of oldest) of the flush queue, or ``None``."""
        ...

    def pop_flush_batch(self) -> Optional[FlushBatch]:
        """Pop up to one page worth of queued payloads."""
        ...

    def commit_flush(self, batch: FlushBatch, block: int, page: int) -> None:
        """Bind a programmed batch's payloads to their flash location."""
        ...

    def gc_eligible(self, block_index: int) -> bool:
        """Whether GC may pick this block as a victim."""
        ...

    def gc_census(self, victim: int) -> List[GcItem]:
        """Every live payload currently resident in ``victim``."""
        ...

    def gc_relocate(self, item: GcItem, victim: int, target: int,
                    new_page: int, slot: int) -> bool:
        """Rebind one relocated payload; ``False`` if it died in flight."""
        ...

    def gc_cleanup(self, victim: int) -> None:
        """Drop personality-side state for a fully collected block."""
        ...

    def mapping_view(self) -> Iterable[Tuple[object, int, int, int]]:
        """Every live mapping as ``(ident, block, page, nbytes)``.

        Consumed only by :meth:`FtlCore.check_invariants`; idents must be
        unique and hashable.
        """
        ...


class FtlCore:
    """Shared device substrate both firmware personalities compose.

    Owns the free-block pool, allocation streams, write buffer, flush
    workers and the GC worker, and writes to the array's
    :class:`DeviceStats`.  The hosting personality is consulted only
    through the hook protocol documented in the module docstring.
    """

    def __init__(
        self,
        env: Environment,
        array: FlashArray,
        personality: Personality,
        *,
        stream_width: int,
        page_payload_bytes: int,
        user_capacity_bytes: int,
        spare_block_limit: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        invariants: bool = False,
        name: str = "ftl",
    ) -> None:
        if page_payload_bytes < 1:
            raise ConfigurationError("page payload must be >= 1 byte")
        self.env = env
        self.array = array
        self.personality = personality
        self.name = name
        self.stats = array.stats
        #: Optional span tracer for flush/GC timeline spans.
        self.tracer = tracer
        #: Runtime invariant checking (debug/test mode; O(live data)).
        self.invariants = invariants
        #: Usable payload bytes per programmed page (below ``page_bytes``
        #: for the KV personality, which reserves per-page recovery area).
        self.page_payload_bytes = page_payload_bytes
        self.user_capacity_bytes = user_capacity_bytes

        # The pool collects only FREE blocks, so a personality that fences
        # off regions (the KV index area) marks them CLOSED before
        # constructing the core.
        self.pool = FreeBlockPool(array)
        self.buffer = WriteBuffer(
            env, WRITE_BUFFER_BYTES, self.stats, name=f"{name}.buffer"
        )
        self.write_stream = AllocationStream(
            array, self.pool, stream_width, name=f"{name}.data"
        )
        # The GC stream stays narrow: each open block it rotates across is
        # a block taken from the reserve GC itself depends on, and a wide
        # frontier can swallow the whole reserve and deadlock reclamation.
        self.gc_stream = AllocationStream(array, self.pool, 2, name=f"{name}.gc")

        # -- reliability state ------------------------------------------
        # Grown defects consume the over-provisioning spares; past this
        # budget the device can no longer guarantee GC headroom and
        # degrades to read-only rather than corrupting its invariants.
        if spare_block_limit is None:
            spare_block_limit = max(
                GC_RESERVE_BLOCKS, array.geometry.total_blocks // 64
            )
        if spare_block_limit < 1:
            raise ConfigurationError("spare_block_limit must be >= 1")
        self.spare_block_limit = spare_block_limit
        #: Once set, every new write is refused with DeviceReadOnlyError.
        self.read_only = False
        #: Blocks permanently retired (mirrors ``pool.retired``).
        self.grown_defects: Set[int] = set()
        #: Defective blocks awaiting retirement by the GC worker (their
        #: live data must be relocated off them first).
        self._retire_queue: Deque[int] = deque()
        self._retire_pending: Set[int] = set()

        self._dirty = Signal(env, f"{name}.dirty")
        self._space = Signal(env, f"{name}.space")
        self._gc_wakeup = Signal(env, f"{name}.gcwake")
        # At or above 1 the threshold reaches the device's block count and
        # the GC worker never rests.
        if not 0.0 < GC_THRESHOLD_FRACTION < 1.0:
            raise ConfigurationError("GC_THRESHOLD_FRACTION must lie in (0, 1)")
        self.gc_threshold_blocks = max(
            GC_RESERVE_BLOCKS + 2,
            int(array.geometry.total_blocks * GC_THRESHOLD_FRACTION),
        )
        #: The flush workers and the GC worker, ended by :meth:`close`.
        self._workers: List[Process] = [
            env.process(self._flush_worker(), name=f"{name}.flush{worker}")
            for worker in range(stream_width)
        ]
        self._workers.append(env.process(self._gc_worker(), name=f"{name}.gc"))

    def close(self) -> None:
        """End the workers and let go of the personality, once, after the
        last phase.

        The workers' frames hold this core and the personality holds it
        as ``core``; cutting both cycles frees a finished device by
        reference counting.  The core cannot be used afterwards.
        """
        for worker in self._workers:
            worker.end()
        self._workers.clear()
        del self.personality

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------

    @property
    def occupied_bytes(self) -> int:
        """Device bytes currently holding live host data."""
        return self.personality.live_bytes()

    def occupancy_fraction(self) -> float:
        """Live data as a fraction of user capacity."""
        return self.occupied_bytes / self.user_capacity_bytes

    def free_block_count(self) -> int:
        """Erased blocks available for allocation."""
        return len(self.pool)

    # ------------------------------------------------------------------
    # write pipeline
    # ------------------------------------------------------------------

    def kick_flush(self, pending_bytes: int, went_nonempty: bool) -> None:
        """Wake flush workers when the queue state warrants it.

        Workers wake on the empty->non-empty transition, when a full page
        of payload exists, and under buffer pressure; anything between
        rides the linger timer of an already-awake worker.
        """
        if (
            went_nonempty
            or pending_bytes >= self.page_payload_bytes
            or self.buffer.occupied_bytes >= self.buffer.capacity_bytes // 2
        ):
            self._dirty.notify_all()

    def _take_batch(self) -> Optional[FlushBatch]:
        peeked = self.personality.peek_flush()
        if peeked is None:
            return None
        pending_bytes, oldest_arrival_us = peeked
        buffer_pressure = (
            self.buffer.occupied_bytes >= self.buffer.capacity_bytes // 2
        )
        aged = self.env.now - oldest_arrival_us >= FLUSH_LINGER_US
        if pending_bytes < self.page_payload_bytes and not (aged or buffer_pressure):
            return None
        return self.personality.pop_flush_batch()

    def _flush_worker(self) -> Generator[Event, None, None]:
        while True:
            batch = self._take_batch()
            if batch is None:
                # A partial batch ages on the linger timer; with nothing
                # queued only a write wakes the worker (idle pollers would
                # dominate the event stream through a GC stall).
                aging = self.personality.peek_flush() is not None
                yield self._dirty.park(timeout=FLUSH_LINGER_US if aging else None)
                continue
            tracer = self.tracer
            trace = tracer is not None and tracer.wants("flush")
            started = self.env.now if trace else 0.0
            block, page = yield from self._program_slot(
                self.write_stream, False, batch.transfer_bytes,
                batch.payload_bytes,
            )
            self.personality.commit_flush(batch, block, page)
            self.buffer.drain(batch.payload_bytes)
            if trace:
                tracer.complete(
                    "flush", "flush.program", "flush",
                    self.env.now - started,
                    args={"bytes": batch.payload_bytes, "block": block},
                )

    def drain(self) -> Generator[Event, None, None]:
        """Wait until all accepted writes reach flash."""
        while self.personality.peek_flush() is not None or self.buffer.occupied_bytes:
            yield self.env.sleep(FLUSH_LINGER_US)
        self.check_invariants("drain")

    # ------------------------------------------------------------------
    # runtime invariants
    # ------------------------------------------------------------------

    def check_invariants(self, context: str = "explicit") -> None:
        """Cross-check mapping, valid-byte accounting, and the free pool.

        No-op unless the core was built with ``invariants=True``.  Runs
        at scheduling points where the pipeline is quiescent for the
        state it checks (GC end, retirement end, drain end) — every
        mutation of mapping + valid bytes is atomic between yields, so
        the three views must agree exactly:

        I1
            No ident appears twice in the personality's
            ``mapping_view()`` (a double-mapped payload would be counted
            live twice and survive GC as a ghost).
        I2
            Per block, the mapping's live bytes equal the flash array's
            ``valid_bytes`` — GC victim scoring reads the latter, the
            personality relocates from the former; drift between them
            corrupts collection.
        I3
            Conservation: FREE blocks are exactly the pooled blocks
            (minus grown defects, which may never be either), and per
            block ``0 <= valid_bytes <= programmed payload capacity``
            with FREE blocks fully reset — i.e. free/valid/invalid page
            accounting sums to the block's capacity.
        """
        if not self.invariants:
            return
        blocks = self.array.blocks
        per_block: Dict[int, int] = {}
        seen: Set[object] = set()
        for ident, block, page, nbytes in self.personality.mapping_view():
            if ident in seen:
                raise InvariantViolation(
                    f"{self.name}/{context}: ident {ident!r} mapped twice"
                )
            seen.add(ident)
            if not 0 <= block < len(blocks):
                raise InvariantViolation(
                    f"{self.name}/{context}: ident {ident!r} mapped to "
                    f"nonexistent block {block}"
                )
            info = blocks[block]
            if info.state is BlockState.FREE:
                raise InvariantViolation(
                    f"{self.name}/{context}: ident {ident!r} mapped to "
                    f"FREE block {block}"
                )
            if not 0 <= page < info.next_page:
                raise InvariantViolation(
                    f"{self.name}/{context}: ident {ident!r} mapped to "
                    f"unwritten page {page} of block {block} "
                    f"(next_page={info.next_page})"
                )
            if nbytes <= 0:
                raise InvariantViolation(
                    f"{self.name}/{context}: ident {ident!r} maps "
                    f"{nbytes} bytes"
                )
            per_block[block] = per_block.get(block, 0) + nbytes
        page_cap = self.page_payload_bytes
        pages_per_block = self.array.geometry.pages_per_block
        n_free = 0
        for index, info in enumerate(blocks):
            mapped = per_block.get(index, 0)
            if mapped != info.valid_bytes:
                raise InvariantViolation(
                    f"{self.name}/{context}: block {index} has "
                    f"valid_bytes={info.valid_bytes} but the mapping "
                    f"holds {mapped} live bytes there"
                )
            if info.state is BlockState.FREE:
                n_free += 1
                if index in self.pool.retired:
                    raise InvariantViolation(
                        f"{self.name}/{context}: retired block {index} "
                        "is FREE"
                    )
                if info.next_page != 0 or info.valid_bytes != 0:
                    raise InvariantViolation(
                        f"{self.name}/{context}: FREE block {index} not "
                        f"reset (next_page={info.next_page}, "
                        f"valid_bytes={info.valid_bytes})"
                    )
            if not 0 <= info.next_page <= pages_per_block:
                raise InvariantViolation(
                    f"{self.name}/{context}: block {index} next_page="
                    f"{info.next_page} outside [0, {pages_per_block}]"
                )
            if info.valid_bytes > info.next_page * page_cap:
                raise InvariantViolation(
                    f"{self.name}/{context}: block {index} valid_bytes="
                    f"{info.valid_bytes} exceeds the "
                    f"{info.next_page * page_cap}B payload capacity of "
                    f"its {info.next_page} programmed pages"
                )
        if n_free != len(self.pool):
            raise InvariantViolation(
                f"{self.name}/{context}: {n_free} FREE blocks but "
                f"{len(self.pool)} pooled — a block leaked from (or "
                "into) the free pool"
            )

    # ------------------------------------------------------------------
    # media-error recovery
    # ------------------------------------------------------------------

    def ensure_writable(self) -> None:
        """Refuse new writes once grown defects exhausted the spares."""
        if self.read_only:
            raise DeviceReadOnlyError(
                f"{self.name}: {self.stats.retired_blocks} retired blocks "
                f"exceed the {self.spare_block_limit}-block spare budget; "
                "device is read-only"
            )

    def read_page(
        self,
        block: int,
        page: int,
        nbytes: int,
        span: Any = NULL_SPAN,
        must_succeed: bool = True,
    ) -> Generator[Event, None, ReadResult]:
        """Read a page with read-retry recovery (timed).

        The first attempt charges the op span's ``flash`` phase; the
        retry loop — linearly growing backoff (re-tuned read reference
        voltages take longer each step) plus the re-read — charges
        ``recovery``, so a faulted operation's attribution still tiles
        its latency.  Raises
        :class:`~repro.errors.UncorrectableReadError` when retries run
        out, unless ``must_succeed=False`` (GC relocation reads: data
        content is not modeled, so collection proceeds and the failure
        is only counted).
        """
        span.enter("flash")
        result = yield from self.array.read(block, page, nbytes)
        if result.ok:
            return result
        faults = self.array.faults
        started = self.env.now
        attempt = 0
        span.enter("recovery")
        while not result.ok and attempt < MAX_READ_RETRIES:
            attempt += 1
            yield self.env.sleep(READ_RETRY_BACKOFF_US * attempt)
            result = yield from self.array.read(
                block, page, nbytes, attempt=attempt
            )
        faults.finish_read(block, page)
        elapsed = self.env.now - started
        self.stats.read_retries += attempt
        self.stats.recovery_us += elapsed
        tracer = self.tracer
        if tracer is not None and tracer.wants("recovery"):
            tracer.complete(
                "recovery", "read.retry", "recovery", elapsed,
                args={"block": block, "page": page,
                      "retries": attempt, "ok": result.ok},
            )
        if result.ok:
            self.stats.corrected_reads += 1
            return ReadResult(ok=True, retries=attempt)
        self.stats.uncorrectable_reads += 1
        if must_succeed:
            raise UncorrectableReadError(
                f"uncorrectable read at block {block} page {page} after "
                f"{attempt} retries",
                block=block, page=page,
            )
        return ReadResult(ok=False, retries=attempt)

    def _program_slot(
        self, stream: AllocationStream, for_gc: bool,
        transfer_bytes: int, payload_bytes: int,
    ) -> Generator[Event, None, Tuple[int, int]]:
        """Allocate a slot and program it, reallocating on program fail.

        A failed program closes the defective block (so the stream's next
        rotation refills the slot from the pool), queues it for
        retirement, and retries on fresh blocks.  Returns the
        ``(block, page)`` that finally took the data.
        """
        attempts = 0
        while True:
            yield from self.block_allowance(for_gc=for_gc)
            block = stream.next_slot()
            if not for_gc and len(self.pool) < self.gc_threshold_blocks:
                self._gc_wakeup.notify_all()
            try:
                started = self.env.now
                page = yield from self.array.program(
                    block, transfer_bytes, payload_bytes
                )
            except ProgramFailError:
                attempts += 1
                self.stats.program_fails += 1
                self.stats.reallocations += 1
                self.stats.recovery_us += self.env.now - started
                self._mark_defective(block)
                if attempts > self.array.geometry.total_blocks:
                    # Every block failing means the fault model is set to
                    # certain failure; surface loudly instead of spinning.
                    raise
                continue
            return block, page

    def _mark_defective(self, block: int) -> None:
        """Close a program-failed block and queue it for retirement."""
        self.array.close_defective(block)
        if block not in self._retire_pending and block not in self.grown_defects:
            self._retire_pending.add(block)
            self._retire_queue.append(block)
            self._gc_wakeup.notify_all()
        tracer = self.tracer
        if tracer is not None and tracer.wants("recovery"):
            tracer.instant(
                "recovery", "block.defect", "recovery", args={"block": block}
            )

    def _note_retired(self, block: int) -> None:
        """Account a block as a grown defect; flip read-only past budget."""
        self._retire_pending.discard(block)
        if block in self.grown_defects:
            return
        self.grown_defects.add(block)
        self.pool.retire(block)
        self.stats.retired_blocks += 1
        tracer = self.tracer
        trace = tracer is not None and tracer.wants("recovery")
        if trace:
            tracer.instant(
                "recovery", "block.retire", "recovery",
                args={"block": block, "retired": self.stats.retired_blocks},
            )
        if not self.read_only and self.stats.retired_blocks > self.spare_block_limit:
            self.read_only = True
            if trace:
                tracer.instant(
                    "recovery", "device.read_only", "recovery",
                    args={"retired": self.stats.retired_blocks,
                          "spare_limit": self.spare_block_limit},
                )

    def _retire_block(self, victim: int) -> Generator[Event, None, None]:
        """Relocate live data off a defective block, then retire it.

        Runs in the GC worker ahead of regular collections; the block
        never returns to the free pool.
        """
        started = self.env.now
        yield from self._relocate_live(victim)
        self.personality.gc_cleanup(victim)
        if self.array.blocks[victim].valid_bytes != 0:
            raise ConfigurationError(
                f"defective block {victim} kept "
                f"{self.array.blocks[victim].valid_bytes}B valid after "
                "relocation"
            )
        self._note_retired(victim)
        self.stats.recovery_us += self.env.now - started
        self.check_invariants("retire")

    def _gc_read(self, victim: int, page: int) -> Generator[Event, None, None]:
        """One relocation read; uncorrectable data is counted, not fatal."""
        yield from self.read_page(
            victim, page, self.array.geometry.page_bytes, must_succeed=False
        )

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def block_allowance(self, for_gc: bool) -> Generator[Event, None, None]:
        """Wait until the free pool can serve this allocation class.

        Host flushes wait above the GC reserve; GC's own allocations may
        dig into it down to the last block.  A waiting flush is exactly
        what makes the next collection *foreground*.
        """
        floor = 0 if for_gc else GC_RESERVE_BLOCKS
        started: Optional[float] = None
        while len(self.pool) <= floor:
            if started is None:
                started = self.env.now
                self.stats.allowance_stalls += 1
            self._gc_wakeup.notify_all()
            yield self._space.park()
        if started is not None:
            self.stats.allowance_stall_us += self.env.now - started
            tracer = self.tracer
            if tracer is not None and tracer.wants("gc"):
                tracer.complete(
                    "stall", "allowance.stall", "gc",
                    self.env.now - started,
                    args={"for_gc": for_gc},
                )

    def gc_page_benefit(self, block_index: int) -> int:
        """Pages freed net of pages consumed by relocating ``block_index``."""
        valid = self.array.blocks[block_index].valid_bytes
        pages_needed = ceil_div(valid, self.page_payload_bytes) if valid else 0
        return self.array.geometry.pages_per_block - pages_needed

    def _gc_eligible(self, block_index: int) -> bool:
        """Personality eligibility minus retired/retiring blocks.

        A defect-closed block looks like a perfect victim once its live
        data is gone (zero valid bytes), but collecting it would erase
        and reuse a block the device has given up on.
        """
        if block_index in self.grown_defects or block_index in self._retire_pending:
            return False
        return self.personality.gc_eligible(block_index)

    def has_reclaimable_victim(self) -> bool:
        """Whether any eligible closed block would yield net pages to GC."""
        for block_index, info in enumerate(self.array.blocks):
            if info.state is not BlockState.CLOSED:
                continue
            if not self._gc_eligible(block_index):
                continue
            if self.gc_page_benefit(block_index) >= 1:
                return True
        return False

    def select_victim(self) -> Optional[int]:
        """Pick the next GC victim: the eligible block with least valid data."""
        return greedy_victim(self.array, self._gc_eligible)

    def _gc_worker(self) -> Generator[Event, None, None]:
        while True:
            if self._retire_queue:
                # Defective blocks first: their live data is at risk and
                # their pages are unusable either way.
                yield from self._retire_block(self._retire_queue.popleft())
            elif len(self.pool) < self.gc_threshold_blocks:
                yield from self._collect_once()
            else:
                yield self._gc_wakeup.park()

    def _collect_once(self) -> Generator[Event, None, None]:
        victim = self.select_victim()
        if victim is None:
            yield self.env.sleep(200.0)
            return
        critical = len(self.pool) <= GC_RESERVE_BLOCKS
        if self.gc_page_benefit(victim) < (1 if critical else 2):
            # Relocating this victim would consume as many pages as it
            # frees; wait for invalidations instead of churning.
            yield self.env.sleep(2000.0)
            return
        foreground = self._space.waiting > 0 or critical
        self.stats.gc_runs += 1
        if foreground:
            self.stats.foreground_gc_runs += 1
        self.stats.gc_events.append((self.env.now, foreground))
        self.stats.gc_victims.append(victim)
        tracer = self.tracer
        trace = tracer is not None and tracer.wants("gc")
        collect_started = self.env.now
        if trace:
            tracer.instant(
                "gc", "gc.select", "gc",
                args={
                    "victim": victim,
                    "benefit_pages": self.gc_page_benefit(victim),
                    "foreground": foreground,
                },
            )

        relocated_bytes = yield from self._relocate_live(victim)
        self.personality.gc_cleanup(victim)
        if self.array.blocks[victim].valid_bytes != 0:
            # Concurrent invalidations should have zeroed it; any residue
            # means unmatched accounting, which we surface loudly.
            raise ConfigurationError(
                f"victim {victim} kept {self.array.blocks[victim].valid_bytes}B "
                "valid after relocation"
            )
        self.stats.gc_relocated_bytes += relocated_bytes
        try:
            yield from self.array.erase(victim)
        except EraseFailError:
            # The erase consumed its time but the block never came back;
            # retire it instead of returning it to the pool.
            self.stats.erase_fails += 1
            self._note_retired(victim)
        else:
            self.pool.push(victim)
            self.stats.gc_erased_blocks += 1
            self._space.notify_all()
        if trace:
            tracer.complete(
                "gc", "gc.collect", "gc",
                self.env.now - collect_started,
                args={
                    "victim": victim,
                    "relocated_bytes": relocated_bytes,
                    "foreground": foreground,
                },
            )
        self.check_invariants("gc")

    def _relocate_live(self, victim: int) -> Generator[Event, None, int]:
        """Move every live payload out of ``victim``; returns moved bytes.

        Shared by regular collection and defective-block retirement: a
        census of live payloads, parallel page reads, then first-fit
        grouped reprograms through the GC stream with the personality
        rebinding each payload.
        """
        live = self.personality.gc_census(victim)
        pages = sorted({item.page for item in live})
        if pages:
            read_procs = [
                self.env.process(self._gc_read(victim, page))
                for page in pages
            ]
            yield self.env.all_of(read_procs)

        relocated_bytes = 0
        position = 0
        while position < len(live):
            # First-fit in census order into one page's payload area; for
            # uniform payloads (block personality) this degenerates to
            # fixed slots-per-page groups.
            group: List[GcItem] = []
            room = self.page_payload_bytes
            while position < len(live) and live[position].nbytes <= room:
                group.append(live[position])
                room -= live[position].nbytes
                position += 1
            if not group:  # pragma: no cover - payloads never exceed a page
                raise ConfigurationError("unpackable GC payload")
            nbytes = sum(item.nbytes for item in group)
            target, new_page = yield from self._program_slot(
                self.gc_stream, True, self.array.geometry.page_bytes, nbytes
            )
            for slot, item in enumerate(group):
                if self.personality.gc_relocate(item, victim, target, new_page, slot):
                    self.array.invalidate(victim, item.nbytes)
                    relocated_bytes += item.nbytes
                else:
                    # Invalidated between census and program: the fresh
                    # copy is dead on arrival.
                    self.array.invalidate(target, item.nbytes)
        return relocated_bytes
