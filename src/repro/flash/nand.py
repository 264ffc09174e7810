"""The timed NAND flash array shared by both firmware personalities.

:class:`FlashArray` combines three concerns:

* **Timing** — reads, programs and erases are simulation processes that
  contend for per-die and per-channel resources, so parallelism (and the
  lack of it) emerges from the geometry rather than from tuned constants.
* **State** — per-block lifecycle (FREE -> OPEN -> CLOSED -> FREE after
  erase), the next programmable page, and the count of still-valid bytes
  per block.  Valid-byte accounting is what garbage collection policies
  read when choosing victims.
* **Fast priming** — untimed state mutation (:meth:`prime_program`) used by
  experiment setup to pre-fill a device without simulating each I/O, which
  makes the paper's "fill 80% of a 3.84 TB drive" setups feasible.

The array does not store user data bytes — the simulator tracks sizes and
placement, not content.  Content correctness is the FTLs' job and is
verified at their level through mapping invariants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, List, Optional

from repro.errors import (
    AddressError,
    EraseFailError,
    ProgramFailError,
    SimulationError,
)
from repro.faults.model import FaultInjector, READ_OK, ReadResult
from repro.flash import timing
from repro.flash.geometry import Geometry
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.units import float_sum

if TYPE_CHECKING:
    # Both live above this layer; imported for annotations only.
    from repro.ftl.core import DeviceStats
    from repro.trace.tracer import Tracer


class BlockState(enum.Enum):
    """Lifecycle of an erase unit."""

    FREE = "free"
    OPEN = "open"
    CLOSED = "closed"


@dataclass
class BlockInfo:
    """Mutable bookkeeping for one erase unit."""

    state: BlockState = BlockState.FREE
    next_page: int = 0
    valid_bytes: int = 0
    erase_count: int = 0


class FlashArray:
    """Timed, stateful NAND array.

    All timed entry points are generator methods intended for ``yield
    from`` inside simulation processes.  Timing composition:

    * ``read``: die busy for tR, then channel busy for the data transfer.
    * ``program``: channel busy for the data transfer, then die busy for
      tPROG.  (Cache-program pipelining across planes is approximated by
      the per-die resource: two planes behind one die still serialize,
      matching the conservative end of real devices.)
    * ``erase``: die busy for tBERS; negligible channel traffic.

    Every timed op bumps the device's ``stats``: its count
    (``flash_reads``/``flash_programs``/``flash_erases``) and the
    die/channel service time (``flash_busy_us``).
    """

    def __init__(
        self,
        env: Environment,
        geometry: Geometry,
        stats: "DeviceStats",
        tracer: Optional["Tracer"] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.geometry = geometry
        #: Memo table for :meth:`transfer_us`.  Workloads issue a handful
        #: of distinct transfer sizes (the value size, the page size, index
        #: pages), so per-page timing arithmetic on the hot path collapses
        #: to one dict probe; the values are exact, not approximate.
        self._transfer_memo: Dict[int, float] = {}
        #: The device's counter record; timed ops write to it.
        self.stats = stats
        #: Optional span tracer; timed ops emit die/channel timeline spans.
        self._tracer = tracer
        #: Optional fault injector; ``None`` models perfect flash.
        self.faults = faults
        self._dies: List[Resource] = [
            Resource(env, capacity=1, name=f"die{i}")
            for i in range(geometry.total_dies)
        ]
        self._channels: List[Resource] = [
            Resource(env, capacity=1, name=f"ch{i}") for i in range(geometry.channels)
        ]
        self.blocks: List[BlockInfo] = [
            BlockInfo() for _ in range(geometry.total_blocks)
        ]
        # Per-block lookup tables, precomputed once: the die/channel of a
        # block is pure arithmetic on the geometry, and resolving it per
        # timed op (three times per read, counting the trace track name)
        # showed up in profiles.  Index layout matches Geometry.die_of_block.
        total_dies = geometry.total_dies
        channels = geometry.channels
        self._die_index: List[int] = [
            block % total_dies for block in range(geometry.total_blocks)
        ]
        self._chan_index: List[int] = [
            (block % total_dies) % channels for block in range(geometry.total_blocks)
        ]
        self._die_res: List[Resource] = [
            self._dies[die] for die in self._die_index
        ]
        self._chan_res: List[Resource] = [
            self._channels[chan] for chan in self._chan_index
        ]
        self._die_track: List[str] = [f"die{die}" for die in self._die_index]
        self._chan_track: List[str] = [f"ch{chan}" for chan in self._chan_index]

    def close(self) -> None:
        """Empty the die and channel queues of an ended simulation: flash
        work still in flight there (a GC read, a compaction's page reads)
        holds the device above through its frames."""
        for resource in self._dies + self._channels:
            resource.close()

    def transfer_us(self, nbytes: int) -> float:
        """Channel occupancy to move ``nbytes`` (:func:`timing.transfer_us`)."""
        memo = self._transfer_memo
        cached = memo.get(nbytes)
        if cached is None:
            cached = memo[nbytes] = timing.transfer_us(nbytes)
        return cached

    def _tracing(self) -> Optional["Tracer"]:
        """The tracer when flash spans are wanted, else ``None``.

        Timeline spans are recorded immediately after each resource serve
        with the known service duration, so they cover busy time only —
        queue waits show up as gaps on the die/channel tracks.
        """
        tracer = self._tracer
        if tracer is not None and tracer.wants("flash"):
            return tracer
        return None

    # -- resource lookup ---------------------------------------------------

    def die_resource(self, block_index: int) -> Resource:
        """Die resource owning ``block_index``."""
        self.geometry.check_block(block_index)
        return self._die_res[block_index]

    def channel_resource(self, block_index: int) -> Resource:
        """Channel resource serving ``block_index``."""
        self.geometry.check_block(block_index)
        return self._chan_res[block_index]

    def die_utilization(self) -> float:
        """Mean busy fraction across all dies since construction."""
        fractions = [die.busy_fraction() for die in self._dies]
        return float_sum(fractions) / len(fractions)

    # -- state transitions (untimed, used by timed ops and by priming) -----

    def open_block(self, block_index: int) -> None:
        """Transition a FREE block to OPEN so pages can be programmed."""
        info = self._info(block_index)
        if info.state is not BlockState.FREE:
            raise SimulationError(
                f"block {block_index} cannot be opened from state {info.state}"
            )
        info.state = BlockState.OPEN
        info.next_page = 0
        info.valid_bytes = 0

    def _info(self, block_index: int) -> BlockInfo:
        blocks = self.blocks
        if not 0 <= block_index < len(blocks):
            # Delegate for the canonical out-of-range message.
            self.geometry.check_block(block_index)
        return blocks[block_index]

    def _commit_program(self, block_index: int, valid_bytes: int) -> int:
        """Advance the block's write point; returns the programmed page index."""
        info = self._info(block_index)
        geometry = self.geometry
        pages_per_block = geometry.pages_per_block
        if info.state is not BlockState.OPEN:
            raise SimulationError(
                f"program to block {block_index} in state {info.state}"
            )
        page_index = info.next_page
        if page_index >= pages_per_block:
            raise SimulationError(f"block {block_index} has no free pages")
        if not 0 <= valid_bytes <= geometry.page_bytes:
            raise AddressError(
                f"valid_bytes {valid_bytes} outside page of "
                f"{geometry.page_bytes} bytes"
            )
        info.next_page = page_index + 1
        info.valid_bytes += valid_bytes
        if page_index + 1 == pages_per_block:
            info.state = BlockState.CLOSED
        return page_index

    def invalidate(self, block_index: int, nbytes: int) -> None:
        """Mark ``nbytes`` of a block's contents dead (overwritten/deleted)."""
        info = self._info(block_index)
        if nbytes < 0:
            raise AddressError(f"cannot invalidate negative bytes ({nbytes})")
        if nbytes > info.valid_bytes:
            raise SimulationError(
                f"invalidate {nbytes}B exceeds valid {info.valid_bytes}B in "
                f"block {block_index}"
            )
        info.valid_bytes -= nbytes

    def prime_program(self, block_index: int, valid_bytes: int) -> int:
        """Untimed page program for experiment setup (fast fill).

        Identical state effect to the timed :meth:`program`; no counter
        records it.
        """
        return self._commit_program(block_index, valid_bytes)

    def prime_program_run(
        self, block_index: int, n_pages: int, valid_bytes_per_page: int
    ) -> int:
        """Untimed program of ``n_pages`` consecutive pages of one block.

        State-identical to ``n_pages`` calls of :meth:`prime_program`
        with the same per-page payload; returns the first programmed page
        index.  Bulk priming batches whole-page runs through here so the
        per-page commit arithmetic runs once per run, not once per page.
        """
        info = self._info(block_index)
        if info.state is not BlockState.OPEN:
            raise SimulationError(
                f"program to block {block_index} in state {info.state}"
            )
        pages_per_block = self.geometry.pages_per_block
        start_page = info.next_page
        if n_pages < 1 or start_page + n_pages > pages_per_block:
            raise SimulationError(
                f"run of {n_pages} pages from page {start_page} does not fit "
                f"block {block_index}"
            )
        if not 0 <= valid_bytes_per_page <= self.geometry.page_bytes:
            raise AddressError(
                f"valid_bytes {valid_bytes_per_page} outside page of "
                f"{self.geometry.page_bytes} bytes"
            )
        info.next_page = start_page + n_pages
        info.valid_bytes += n_pages * valid_bytes_per_page
        if info.next_page == pages_per_block:
            info.state = BlockState.CLOSED
        return start_page

    def prime_erase(self, block_index: int) -> None:
        """Untimed erase for experiment setup."""
        info = self._info(block_index)
        info.state = BlockState.FREE
        info.next_page = 0
        info.valid_bytes = 0
        info.erase_count += 1

    # -- timed operations ----------------------------------------------------

    def read(
        self,
        block_index: int,
        page_index: int,
        nbytes: int,
        attempt: int = 0,
        fault_check: bool = True,
    ) -> Generator[Event, None, ReadResult]:
        """Read ``nbytes`` from a programmed page (timed).

        The die senses the full page; only ``nbytes`` cross the channel.
        Returns a :class:`~repro.faults.model.ReadResult`; with no fault
        injector (or ``fault_check=False``, used for regions the fault
        model deliberately excludes) every read comes back clean.
        ``attempt`` numbers the retry step — the recovering caller
        (:meth:`~repro.ftl.core.FtlCore.read_page`) re-issues with
        increasing attempts until the injector relents or retries run out.
        """
        info = self._info(block_index)
        self.geometry.check_page(block_index, page_index)
        if page_index >= info.next_page and info.state is not BlockState.CLOSED:
            raise SimulationError(
                f"read of unprogrammed page {page_index} in block {block_index}"
            )
        # The fault decision happens at issue time, before any timed wait,
        # so the injector's RNG is consumed in submission order and replays
        # are deterministic regardless of resource contention.
        good = True
        if fault_check and self.faults is not None:
            good = self.faults.read_attempt(block_index, page_index, attempt)
        stats = self.stats
        nbytes = min(nbytes, self.geometry.page_bytes)
        read_us = timing.READ_US
        transfer_us = self.transfer_us(nbytes)
        tracer = self._tracing()
        yield self._die_res[block_index].serve(read_us)
        # Busy time is banked per serve, at the same instants spans are
        # recorded, so counter and trace agree even with ops in flight.
        stats.flash_busy_us += read_us
        if tracer is not None:
            tracer.complete(
                self._die_track[block_index],
                "read", "flash", read_us,
                args={"block": block_index},
            )
        yield self._chan_res[block_index].serve(transfer_us)
        stats.flash_busy_us += transfer_us
        if tracer is not None:
            tracer.complete(
                self._chan_track[block_index],
                "read.xfer", "flash", transfer_us,
            )
        stats.flash_reads += 1
        if good and attempt == 0:
            return READ_OK
        return ReadResult(ok=good, retries=attempt)

    def program(
        self, block_index: int, nbytes: int, valid_bytes: int
    ) -> Generator[Event, None, int]:
        """Program the next page of an OPEN block (timed).

        ``nbytes`` is the transfer size (normally the full page);
        ``valid_bytes`` is how much of the page holds live data for GC
        accounting.  Returns the programmed page index.

        Raises :class:`~repro.errors.ProgramFailError` when the fault
        injector fails the program's status check — after the transfer
        and tPROG have been consumed (a real failed program costs full
        time), with the block state unchanged so the FTL can close the
        block and reallocate elsewhere.
        """
        failed = False
        if self.faults is not None:
            failed = self.faults.program_fails(block_index)
        stats = self.stats
        nbytes = min(nbytes, self.geometry.page_bytes)
        program_us = timing.PROGRAM_US
        transfer_us = self.transfer_us(nbytes)
        tracer = self._tracing()
        yield self._chan_res[block_index].serve(transfer_us)
        stats.flash_busy_us += transfer_us
        if tracer is not None:
            tracer.complete(
                self._chan_track[block_index],
                "program.xfer", "flash", transfer_us,
            )
        yield self._die_res[block_index].serve(program_us)
        stats.flash_busy_us += program_us
        if tracer is not None:
            tracer.complete(
                self._die_track[block_index],
                "program", "flash", program_us,
                args={"block": block_index},
            )
        if failed:
            raise ProgramFailError(
                f"program failed in block {block_index}", block=block_index
            )
        page_index = self._commit_program(block_index, valid_bytes)
        stats.flash_programs += 1
        return page_index

    def erase(self, block_index: int) -> Generator[Event, None, None]:
        """Erase a block (timed), returning it to the FREE state.

        Raises :class:`~repro.errors.EraseFailError` when the fault
        injector fails the erase — after tBERS has been consumed, with
        the block left CLOSED so the FTL retires it instead of reusing it.
        """
        info = self._info(block_index)
        if info.valid_bytes != 0:
            raise SimulationError(
                f"erase of block {block_index} with {info.valid_bytes} valid "
                "bytes; relocate live data first"
            )
        failed = False
        if self.faults is not None:
            failed = self.faults.erase_fails(block_index)
        tracer = self._tracing()
        yield self._die_res[block_index].serve(timing.ERASE_US)
        self.stats.flash_busy_us += timing.ERASE_US
        if tracer is not None:
            tracer.complete(
                self._die_track[block_index],
                "erase", "flash", timing.ERASE_US,
                args={"block": block_index},
            )
        if failed:
            info.state = BlockState.CLOSED
            raise EraseFailError(
                f"erase failed in block {block_index}", block=block_index
            )
        info.state = BlockState.FREE
        info.next_page = 0
        info.erase_count += 1
        self.stats.flash_erases += 1

    def close_defective(self, block_index: int) -> None:
        """Force an OPEN block CLOSED after a program failure (untimed).

        Closing abandons the block's remaining free pages; allocation
        streams notice the externally-closed block and refill the slot,
        which is exactly the reallocation path program-fail recovery
        needs.  Already-CLOSED blocks are accepted (a program can fail on
        the last page of a block another writer just filled).
        """
        info = self._info(block_index)
        if info.state is BlockState.FREE:
            raise SimulationError(
                f"block {block_index} cannot be defect-closed while FREE"
            )
        info.state = BlockState.CLOSED

    # -- aggregate views -----------------------------------------------------

    def free_blocks(self) -> int:
        """Number of blocks currently FREE."""
        return sum(1 for info in self.blocks if info.state is BlockState.FREE)

    def total_valid_bytes(self) -> int:
        """Live bytes across the whole array."""
        return sum(info.valid_bytes for info in self.blocks)
