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

from typing import Generator

from repro.flash.nand import FlashArray
from repro.flash.timing import PROGRAM_US
from repro.ftl.core import DeviceStats
from repro.kvftl.config import DEVICE_NAME, MERGE_BATCH
from repro.kvftl.hashindex import GlobalHashIndex
from repro.sim.engine import Environment, Event
from repro.sim.signal import Signal


class MergeEngine:
    """Background merger of local-index entries into the global index."""

    def __init__(
        self,
        env: Environment,
        array: FlashArray,
        index: GlobalHashIndex,
        stats: DeviceStats,
    ) -> None:
        self.env = env
        self.array = array
        self.index = index
        self.stats = stats
        #: Iterator bucket pages awaiting a flush (piggybacked on merges).
        self.iterator_flush_backlog = 0
        self._local_index_capacity = 4 * MERGE_BATCH
        self._wakeup = Signal(env, f"{DEVICE_NAME}.mergewake")
        self._done = Signal(env, f"{DEVICE_NAME}.mergedone")
        self._process = env.process(self._worker(), name=f"{DEVICE_NAME}.merge")

    def close(self) -> None:
        """End the merge worker, whose frame holds this engine."""
        self._process.end()

    # -- index flash traffic ---------------------------------------------

    def index_page_read(self) -> Generator[Event, None, None]:
        """Timed read of the next index-region page.

        Index-region reads bypass fault injection: the region is fenced
        from GC and modeled as overwrite-in-place metadata, so the fault
        model scopes to the data path (see DESIGN.md).
        """
        block, page = self.index.next_region_page()
        yield from self.array.read(
            block, page, self.array.geometry.page_bytes, fault_check=False
        )
        self.stats.index_flash_reads += 1

    def index_page_write(self) -> Generator[Event, None, None]:
        """Timed index-region page write (overwrite-in-place fidelity).

        Timing uses the same die/channel contention as any program.
        """
        block, _page = self.index.next_region_page()
        yield self.array.channel_resource(block).serve(
            self.array.transfer_us(self.array.geometry.page_bytes)
        )
        yield self.array.die_resource(block).serve(PROGRAM_US)
        self.stats.index_flash_writes += 1

    # -- scheduling -------------------------------------------------------

    def kick_if_dirty(self) -> None:
        """Wake the engine once a full merge batch has accumulated."""
        if self.index.dirty_entries >= MERGE_BATCH:
            self._wakeup.notify_all()

    def behind(self) -> bool:
        """Whether the local indexes are full, i.e. a store has to wait."""
        return self.index.dirty_entries >= self._local_index_capacity

    def backpressure(self) -> Generator[Event, None, None]:
        """Block stores while local indexes are full (merge engine behind)."""
        while self.behind():
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
                    yield from self.index_page_write()
                work = self.index.take_merge_batch()
                for _ in range(work.page_reads):
                    yield from self.index_page_read()
                for _ in range(work.page_writes):
                    yield from self.index_page_write()
                self._done.notify_all()
            else:
                # Below a full batch: sleep until the dirty counter crosses
                # the threshold (stores and GC notify).  Sub-batch entries
                # stay in the local indexes — harmless, and a pure signal
                # wait keeps idle periods event-free.
                yield self._wakeup.park()
