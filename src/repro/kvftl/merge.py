"""The serialized local-to-global index merge engine.

Per-manager local indexes absorb store/delete traffic cheaply; a single
merge engine folds them into the global hash index in batches, paying
index-region flash reads and writes (Sec. II).  Serialization is the
point: at high index occupancy the merge engine falls behind, local
indexes fill, and stores block on :meth:`MergeEngine.backpressure` —
the emergent mechanism behind the paper's Fig. 3 insert-latency collapse.

The engine also owns all index-region flash traffic (page reads for
lookups, overwrite-in-place page writes for merges and iterator-bucket
flushes), so the device personality never touches the region directly.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.flash.nand import FlashArray
from repro.flash.timing import PROGRAM_US, READ_US
from repro.ftl.core import DeviceStats
from repro.kvftl.config import DEVICE_NAME, MERGE_BATCH
from repro.kvftl.hashindex import GlobalHashIndex
from repro.sim.engine import Environment, Event
from repro.sim.signal import Signal
from repro.trace.tracer import Tracer


class MergeEngine:
    """Background merger of local-index entries into the global index."""

    def __init__(
        self,
        env: Environment,
        array: FlashArray,
        index: GlobalHashIndex,
        stats: DeviceStats,
        region_blocks: List[int],
        tracer: Tracer,
    ) -> None:
        self.index = index
        self.stats = stats
        #: Iterator bucket pages awaiting a flush (piggybacked on merges).
        self.iterator_flush_backlog = 0
        self._local_index_capacity = 4 * MERGE_BATCH
        # The index region, one (block, die, channel) per block; the
        # cursor walks its pages round-robin, block by block.
        self._region = [
            (block, array.die_resource(block), array.channel_resource(block))
            for block in region_blocks
        ]
        self._pages_per_block = array.geometry.pages_per_block
        self._region_pages = len(self._region) * self._pages_per_block
        self._cursor = 0
        self._page_xfer_us = array.transfer_us(array.geometry.page_bytes)
        #: The tracer when flash spans are kept, else ``None``: the device
        #: bound it before building the engine.
        self._tracer: Optional[Tracer] = tracer if tracer.wants("flash") else None
        #: Whether the worker is parked on ``_wakeup``: a notify while it
        #: works would find no waiter.
        self._idle = False
        self._wakeup = Signal(env, f"{DEVICE_NAME}.mergewake")
        self._done = Signal(env, f"{DEVICE_NAME}.mergedone")
        self._process = env.process(self._worker(), name=f"{DEVICE_NAME}.merge")

    def close(self) -> None:
        """End the merge worker, whose frame holds this engine."""
        self._process.end()

    # -- index flash traffic ---------------------------------------------

    def region_io(self, reads: int, writes: int = 0) -> Generator[Event, None, None]:
        """Timed ``reads`` then ``writes`` of the next index-region pages.

        The region is overwrite-in-place flash on the data's dies and
        channels.  A read is tR then the transfer, banked and traced as
        :meth:`FlashArray.read` does, minus fault injection (the fault
        model scopes to the data path, DESIGN §9); a write is the transfer
        then tPROG, counted in ``index_flash_writes`` only.
        """
        stats = self.stats
        tracer = self._tracer
        region = self._region
        per_block = self._pages_per_block
        xfer = self._page_xfer_us
        for page in range(reads + writes):
            cursor = self._cursor
            self._cursor = (cursor + 1) % self._region_pages
            block, die, channel = region[cursor // per_block]
            if page >= reads:
                yield channel.serve(xfer)
                yield die.serve(PROGRAM_US)
                stats.index_flash_writes += 1
                continue
            yield die.serve(READ_US)
            stats.flash_busy_us += READ_US
            if tracer is not None:
                tracer.complete(die.name, "read", "flash", READ_US, args={"block": block})
            yield channel.serve(xfer)
            stats.flash_busy_us += xfer
            if tracer is not None:
                tracer.complete(channel.name, "read.xfer", "flash", xfer)
            stats.flash_reads += 1
            stats.index_flash_reads += 1

    # -- scheduling -------------------------------------------------------

    def kick_if_dirty(self) -> None:
        """Wake the engine once a full merge batch has accumulated."""
        if self._idle and self.index.dirty_entries >= MERGE_BATCH:
            self._idle = False
            self._wakeup.notify_all()

    def behind(self) -> bool:
        """Whether the local indexes are full, i.e. a store has to wait."""
        return self.index.dirty_entries >= self._local_index_capacity

    def backpressure(self) -> Generator[Event, None, None]:
        """Block stores while local indexes are full (merge engine behind)."""
        while self.behind():
            if self._idle:
                self._idle = False
                self._wakeup.notify_all()
            yield self._done.park()

    def _worker(self) -> Generator[Event, None, None]:
        while True:
            if (
                self.index.dirty_entries >= MERGE_BATCH
                or self.iterator_flush_backlog
            ):
                if self.iterator_flush_backlog:
                    self.iterator_flush_backlog -= 1
                    yield from self.region_io(0, 1)
                work = self.index.take_merge_batch()
                if work.page_reads or work.page_writes:
                    yield from self.region_io(work.page_reads, work.page_writes)
                self._done.notify_all()
            else:
                # Below a full batch: sleep until the dirty counter crosses
                # the threshold (stores and GC notify).  Sub-batch entries
                # stay in the local indexes — harmless, and a pure signal
                # wait keeps idle periods event-free.
                self._idle = True
                yield self._wakeup.park()
