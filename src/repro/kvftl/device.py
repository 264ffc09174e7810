"""The KV-SSD firmware personality.

:class:`KVSSD` implements the device the paper characterizes: a Samsung
KV-SSD style NVMe drive that stores variable-length key-value pairs
directly (Sec. II).  It composes, over the *same*
:class:`~repro.ftl.core.FtlCore` substrate as the block personality:

* **key handling** — hashing, Bloom-filter membership checks, and
  index-manager scheduling;
* **a multi-level global hash index** — DRAM-cached with flash overflow,
  fed by per-manager local indexes through a serialized merge engine
  (:mod:`repro.kvftl.hashindex`);
* **log-like byte-aligned data packing** — blobs of metadata+key+value,
  padded to a 1 KiB minimum allocation, packed first-fit in arrival order
  into 32 KiB pages (no rearrangement), split with offset management when
  larger than a page's usable area;
* **iterator buckets** keyed by the first 4 bytes of each key.

The write pipeline, garbage collection, foreground-stall arbitration and
telemetry all live in the shared core; this file implements only the
personality hooks (what a blob is, where it lives, when it is dead).

Every idiosyncrasy the paper reports is emergent here rather than scripted:
sequential key order buys nothing (hashing), latency degrades with index
occupancy (DRAM overflow + merge engine), small KVPs amplify space (min
allocation), large KVPs pay splitting penalties, and random updates at
high fill collapse into foreground GC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Iterator, List, Optional, Tuple

from repro.errors import (
    CapacityLimitError,
    ConfigurationError,
    DeviceFullError,
    KeyNotFoundError,
)
from repro.faults.model import FaultInjector
from repro.flash.geometry import Geometry
from repro.flash.nand import BlockState, FlashArray
from repro.ftl.core import (
    BUFFER_READ_US,
    CONTROLLER_CORES,
    GC_RESERVE_BLOCKS,
    HOST_INTERFACE_US,
    OVERPROVISION,
    DeviceStats,
    FlushBatch,
    FtlCore,
    GcItem,
)
from repro.kvftl import priming
from repro.kvftl.blob import (
    BlobLayout,
    layout_blob,
    usable_page_bytes,
    validate_key,
    validate_value_size,
)
from repro.kvftl.config import (
    BLOOM_FP_RATE,
    BUFFER_COPY_US_PER_KIB,
    DELETE_INDEX_US,
    DEVICE_NAME,
    EXIST_INDEX_US,
    INDEX_MANAGERS,
    INDEX_REGION_FRACTION,
    INDEX_SLOT_BYTES,
    ITERATOR_FLUSH_KEYS,
    RETRIEVE_CONTROLLER_US,
    RETRIEVE_INDEX_US,
    SPLIT_FRAGMENT_US,
    STORE_CONTROLLER_US,
    STORE_INDEX_US,
    MAX_VALUE_BYTES,
    KVSSDConfig,
)
from repro.kvftl.hashindex import GlobalHashIndex
from repro.kvftl.indexmanager import BloomModel
from repro.kvftl.iterator import IteratorBuckets
from repro.kvftl.manifest import (
    BYTES_BITS,
    BYTES_MASK,
    FRAG_SHIFT,
    PAGE_BITS,
    PAGE_MASK,
    BlockManifest,
)
from repro.kvftl.merge import MergeEngine
from repro.kvftl.population import KeyScheme, PrimedPopulation, run_pages
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import NULL_SPAN, Tracer
from repro.units import KIB, ceil_div


#: Shapes a device keeps layouts for (workloads use a handful).
_LAYOUT_SHAPES = 4096
#: Bits of a stored pair's entry that hold its value size.
_VALUE_BITS = MAX_VALUE_BYTES.bit_length()
_VALUE_MASK = (1 << _VALUE_BITS) - 1


@dataclass(slots=True)
class _QueuedFragment:
    """One blob fragment waiting in the device DRAM pack queue."""

    key: bytes
    frag_index: int
    nbytes: int
    sequence: int
    arrival_us: float


class KVSSD:
    """Simulated NVMe KV-SSD (hash-indexed, log-packing personality)."""

    def __init__(
        self,
        env: Environment,
        geometry: Geometry,
        config: Optional[KVSSDConfig] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.config = config or KVSSDConfig()
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
        self.usable_page = usable_page_bytes(geometry.page_bytes, self.config)
        if (
            geometry.pages_per_block > PAGE_MASK + 1
            or self.usable_page > BYTES_MASK
        ):
            raise ConfigurationError(
                f"a block of {geometry.pages_per_block} pages or a page of "
                f"{self.usable_page} usable bytes exceeds the manifest's "
                f"{PAGE_BITS}-bit page and {BYTES_BITS}-bit size fields"
            )

        # -- index region carved out of the array ------------------------
        # Marked CLOSED and fully programmed *before* the core builds its
        # free pool, so neither allocation nor GC ever touches it.
        region_count = max(
            1, int(geometry.total_blocks * INDEX_REGION_FRACTION)
        )
        self._index_region = list(range(region_count))
        for block in self._index_region:
            info = self.array.blocks[block]
            info.state = BlockState.CLOSED
            info.next_page = geometry.pages_per_block
        self._region_set = set(self._index_region)

        data_blocks = geometry.total_blocks - region_count
        raw_data = data_blocks * geometry.block_bytes
        self.user_capacity_bytes = int(raw_data * (1.0 - OVERPROVISION))
        # The KVP limit binds on the index region: each pair needs a hash
        # slot, and the table cannot exceed its load factor.
        region_bytes = region_count * geometry.block_bytes
        self.max_kvps = int(region_bytes / INDEX_SLOT_BYTES)

        dram = self.config.index_dram_bytes
        if dram is None:
            # Scale the real drive's DRAM:capacity proportion (4 GiB DRAM
            # serving a 3.84 TB device ~= 0.00104 bytes of DRAM per byte).
            dram = max(256 * KIB, int(geometry.capacity_bytes * 0.00104))
        self.index = GlobalHashIndex(geometry.page_bytes, dram)
        #: The controller's index-manager units: ``serve(us)`` occupies one.
        self.index_managers = Resource(
            env, INDEX_MANAGERS, name=f"{DEVICE_NAME}.idxmgr"
        )
        self.bloom = BloomModel(BLOOM_FP_RATE)
        self.iterators = IteratorBuckets(ITERATOR_FLUSH_KEYS)
        self.controller = Resource(
            env, CONTROLLER_CORES, name=f"{DEVICE_NAME}.ctl"
        )
        self.core = FtlCore(
            env,
            self.array,
            self,
            stream_width=self.config.stream_width,
            page_payload_bytes=self.usable_page,
            user_capacity_bytes=self.user_capacity_bytes,
            spare_block_limit=self.config.spare_block_limit,
            tracer=self.tracer,
            invariants=self.config.invariants,
            name=DEVICE_NAME,
        )
        self.pool = self.core.pool
        self.buffer = self.core.buffer

        # -- stored pairs: one packed int each ---------------------------
        #: key -> ``sequence << _seq_shift | value_bytes << _place_bits |
        #: place``; ``place`` is fragment 0's ``block * pages_per_block +
        #: page + 1``, 0 while it waits in the pack queue.  The sequence
        #: tells a queued fragment of a replaced copy from the current one;
        #: the key's length and the value size name the layout, hence each
        #: fragment's size.
        self._records: Dict[bytes, int] = {}
        #: key -> the places of fragments 1.. of a split value.
        self._split: Dict[bytes, List[int]] = {}
        self._pages_per_block = geometry.pages_per_block
        self._place_bits = geometry.total_pages.bit_length()
        self._place_mask = (1 << self._place_bits) - 1
        self._seq_shift = self._place_bits + _VALUE_BITS
        #: Retrieves per key that found a stored pair and read fragment
        #: 0's place only after waiting on the index; a copy replaced
        #: meanwhile leaves its last entry in ``_retired`` (key ->
        #: sequence -> entry) until the last of them reads it.
        self._held: Dict[bytes, int] = {}
        self._retired: Dict[bytes, Dict[int, int]] = {}
        #: (key bytes, value bytes) -> layout: a pure function of the shape
        #: on this device's page size and config, so computed once.
        self._layouts: Dict[Tuple[int, int], BlobLayout] = {}
        self._populations: List[PrimedPopulation] = []
        #: Key prefix -> position in ``_populations``, and the distinct
        #: prefix lengths: a key names at most one population per length.
        self._population_of_prefix: Dict[bytes, int] = {}
        self._prefix_lengths: List[int] = []
        self._manifests: Dict[int, BlockManifest] = {}
        self._pack_queue: Deque[_QueuedFragment] = deque()
        self._pack_pending_bytes = 0
        self._sequence = 0
        self.live_kvps = 0

        self.merge = MergeEngine(
            env, self.array, self.index, self.stats, self._index_region,
            self.tracer,
        )

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------

    def _find_primed(
        self, key: bytes
    ) -> Optional[Tuple[PrimedPopulation, int]]:
        """Locate a live primed pair (not stored since): (population, index)."""
        found = None
        for length in self._prefix_lengths:
            position = self._population_of_prefix.get(key[:length])
            # The earliest fill wins, as when every population was asked.
            if position is not None and (found is None or position < found[0]):
                index = self._populations[position].lookup(key)
                if index is not None:
                    found = (position, index)
        if found is None:
            return None
        return self._populations[found[0]], found[1]

    def add_population(self, population: PrimedPopulation) -> int:
        """Register a bulk fill (of a prefix not yet filled); returns its
        position in fill order."""
        prefix = population.scheme.prefix
        position = len(self._populations)
        self._populations.append(population)
        self._population_of_prefix[prefix] = position
        if len(prefix) not in self._prefix_lengths:
            self._prefix_lengths.append(len(prefix))
        return position

    def contains(self, key: bytes) -> bool:
        """Untimed ground-truth membership (testing/verification hook)."""
        return key in self._records or self._find_primed(key) is not None

    def locations_of(self, key: bytes) -> List[Optional[Tuple[int, int]]]:
        """(block, page) of each fragment of the stored pair ``key``, None
        for one still in the pack queue (testing/verification hook)."""
        entry = self._records[key]
        places = [entry & self._place_mask] + self._split.get(key, [])
        return [
            divmod(place - 1, self._pages_per_block) if place else None
            for place in places
        ]

    # ------------------------------------------------------------------
    # SNIA KVS operations (timed)
    # ------------------------------------------------------------------

    def store(
        self, key: bytes, value_bytes: int, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Store (insert or update) a pair; completes at buffer admission.

        ``ncommands`` is the number of NVMe commands the host needed to
        convey the request (2 for keys above the inline limit, Fig. 8);
        each costs one round of interface processing.  ``span`` is the
        operation's root trace span; every suspension point below follows
        one of its marks, so the attribution buckets tile the latency.
        """
        validate_key(key)
        validate_value_size(value_bytes)
        self.core.ensure_writable()
        layout = self.layout_for(len(key), value_bytes)
        span.enter("controller")
        yield self.controller.serve(
            HOST_INTERFACE_US * ncommands + STORE_CONTROLLER_US
        )
        if layout.is_split:
            # Splitting and offset-pointer management per extra fragment.
            yield self.controller.serve(
                SPLIT_FRAGMENT_US * (layout.data_fragments - 1)
            )
        span.enter("index")
        yield self.index_managers.serve(STORE_INDEX_US)
        if self.merge.behind():
            yield from self.merge.backpressure()

        # Resolved after the suspension points above: a concurrent store of
        # the same key may have landed while we waited at the index.
        entry = self._records.get(key)
        primed = None if entry is not None else self._find_primed(key)
        if entry is None and primed is None:
            if self.live_kvps >= self.max_kvps:
                raise CapacityLimitError(
                    f"device at its {self.max_kvps}-KVP limit"
                )
            if (
                self.stats.device_bytes + layout.footprint_bytes
                > self.user_capacity_bytes
            ):
                raise DeviceFullError("no space left for new pairs")
        if (
            len(self.pool) <= GC_RESERVE_BLOCKS + 1
            and not self.core.has_reclaimable_victim()
        ):
            raise DeviceFullError(
                "free pool exhausted and garbage collection cannot reclaim "
                "net pages"
            )

        # Admission happens per fragment below so a value larger than the
        # device buffer cannot deadlock against its own packing; the
        # entry is written first so queued fragments resolve against it.
        if entry is not None or primed is not None:
            self._invalidate_live(key, entry, primed)
            self.index.note_update()
        else:
            self.index.note_insert()
            self.live_kvps += 1
            if self.iterators.note_store(key):
                self.merge.iterator_flush_backlog += 1
        self.merge.kick_if_dirty()

        self._sequence = sequence = self._sequence + 1
        self._records[key] = (
            sequence << self._seq_shift | value_bytes << self._place_bits
        )
        fragments = layout.fragments
        if len(fragments) > 1:
            self._split[key] = [0] * (len(fragments) - 1)
        self.stats.record_store(len(key), value_bytes, layout.footprint_bytes)
        for frag_index, nbytes in enumerate(fragments):
            span.enter("buffer")
            yield from self.buffer.admit(nbytes)
            span.enter("controller")
            yield self.controller.serve(BUFFER_COPY_US_PER_KIB * nbytes / KIB)
            self._pack_queue.append(
                _QueuedFragment(key, frag_index, nbytes, sequence, self.env.now)
            )
            self._pack_pending_bytes += nbytes
            self.core.kick_flush(
                self._pack_pending_bytes, went_nonempty=len(self._pack_queue) == 1
            )
        self.stats.host_writes += 1
        self.stats.host_write_bytes += len(key) + value_bytes

    def retrieve(
        self, key: bytes, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, int]:
        """Retrieve a pair; returns the value size.  Timed process."""
        validate_key(key)
        span.enter("controller")
        yield self.controller.serve(
            HOST_INTERFACE_US * ncommands + RETRIEVE_CONTROLLER_US
        )
        span.enter("index")
        yield self.index_managers.serve(RETRIEVE_INDEX_US)
        entry = self._records.get(key)
        primed = None if entry is not None else self._find_primed(key)
        # A split value's later places, as the copy found has them when
        # each is read.
        extra = self._split.get(key)
        if not self.bloom.maybe_present(key, entry is not None or primed is not None):
            raise KeyNotFoundError(f"key {key!r} not stored (bloom negative)")
        reads = self.index.lookup_flash_reads(key)
        if reads and entry is not None:
            entry = yield from self._read_index_held(key, entry, reads)
        elif reads:
            yield from self.merge.region_io(reads)
        if entry is None and primed is None:
            raise KeyNotFoundError(f"key {key!r} not stored")

        if entry is not None:
            value_bytes = entry >> self._place_bits & _VALUE_MASK
            layout = self.layout_for(len(key), value_bytes)
            procs = []
            place = entry & self._place_mask
            for frag_index, nbytes in enumerate(layout.fragments):
                if frag_index:
                    place = extra[frag_index - 1]
                if not place:
                    span.enter("controller")
                    yield self.controller.serve(BUFFER_READ_US)
                    continue
                block, page = divmod(place - 1, self._pages_per_block)
                procs.append(
                    self.env.process(self.core.read_page(block, page, nbytes))
                )
            if procs:
                # Parallel fragment reads share the op's flash phase, so
                # any retry time lands there too (per-fragment recovery
                # attribution would require splitting the all_of wait).
                span.enter("flash")
                yield self.env.all_of(procs)
        else:
            population, index = primed
            block, page = population.location_of(index)
            yield from self.core.read_page(
                block, page, population.footprint_bytes, span=span
            )
            value_bytes = population.value_bytes
        self.stats.host_reads += 1
        self.stats.host_read_bytes += value_bytes
        return value_bytes

    def _read_index_held(
        self, key: bytes, entry: int, reads: int
    ) -> Generator[Event, None, int]:
        """Read ``reads`` index pages for a retrieve that found ``entry``,
        and return that copy's entry as it stands once they are read: the
        current one, or the last one it had if a store or delete replaced
        it meanwhile (its fragment may have been packed or moved first)."""
        sequence = entry >> self._seq_shift
        held = self._held
        held[key] = held.get(key, 0) + 1
        try:
            yield from self.merge.region_io(reads)
            entry = self._records.get(key)
            if entry is None or entry >> self._seq_shift != sequence:
                entry = self._retired[key][sequence]
        finally:
            count = held.pop(key) - 1
            if count:
                held[key] = count
            else:
                self._retired.pop(key, None)
        return entry

    def exist(
        self, key: bytes, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, bool]:
        """Membership query (timed); no data page access."""
        validate_key(key)
        span.enter("controller")
        yield self.controller.serve(HOST_INTERFACE_US * ncommands)
        span.enter("index")
        yield self.index_managers.serve(EXIST_INDEX_US)
        found = key in self._records or self._find_primed(key) is not None
        if not self.bloom.maybe_present(key, found):
            return False
        reads = self.index.lookup_flash_reads(key)
        if reads:
            yield from self.merge.region_io(reads)
        return found

    def delete(
        self, key: bytes, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Delete a pair (timed)."""
        validate_key(key)
        span.enter("controller")
        yield self.controller.serve(HOST_INTERFACE_US * ncommands)
        span.enter("index")
        yield self.index_managers.serve(DELETE_INDEX_US)
        found = key in self._records or self._find_primed(key) is not None
        if not self.bloom.maybe_present(key, found):
            raise KeyNotFoundError(f"key {key!r} not stored (bloom negative)")
        reads = self.index.lookup_flash_reads(key)
        if reads:
            yield from self.merge.region_io(reads)
        if not found:
            raise KeyNotFoundError(f"key {key!r} not stored")
        if self.merge.behind():
            yield from self.merge.backpressure()
        # Resolved again after the suspension points above: a concurrent
        # store of the same key may have replaced the copy found first,
        # and a concurrent delete may have removed it.
        entry = self._records.get(key)
        primed = None if entry is not None else self._find_primed(key)
        if entry is None and primed is None:
            raise KeyNotFoundError(f"key {key!r} not stored")
        self._invalidate_live(key, entry, primed)
        self.index.note_delete()
        self.iterators.note_delete(key)
        self.live_kvps -= 1
        self.merge.kick_if_dirty()

    def iterate(
        self, prefix4: bytes, limit: int = 1024, ncommands: int = 1,
        span=NULL_SPAN,
    ) -> Generator[Event, None, List[bytes]]:
        """Open an iterator over keys sharing a 4-byte prefix (timed).

        Returns up to ``limit`` matching keys in sorted order.  The
        device walks the prefix's iterator bucket pages (Sec. II), so the
        cost scales with the bucket's population, not the whole store.
        """
        if len(prefix4) != 4:
            raise ConfigurationError(
                f"iterator prefix must be exactly 4 bytes, got {len(prefix4)}"
            )
        if limit < 1:
            raise ConfigurationError(f"iterator limit must be >= 1, got {limit}")
        span.enter("controller")
        yield self.controller.serve(HOST_INTERFACE_US * ncommands)
        span.enter("index")
        yield self.index_managers.serve(EXIST_INDEX_US)
        count = self.iterators.bucket_count(prefix4)
        # Bucket pages hold ~page/64B key entries each.
        keys_per_page = max(1, self.array.geometry.page_bytes // 64)
        yield from self.merge.region_io(ceil_div(max(count, 1), keys_per_page))
        matches: List[bytes] = [
            key for key in self._records if key[:4] == prefix4
        ]
        for population in self._populations:
            # A population's pairs walk in key order, so its first ``limit``
            # live keys are all it can contribute to the answer.
            pairs = population.scheme.indices_starting(prefix4)
            taken = 0
            for pair in range(pairs.start, min(pairs.stop, population.count)):
                if taken >= limit:
                    break
                if population.overridden[pair >> 3] >> (pair & 7) & 1:
                    continue
                matches.append(population.scheme.key_for(pair))
                taken += 1
        matches.sort()
        return matches[:limit]

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _invalidate_live(
        self, key: bytes, entry: Optional[int],
        primed: Optional[Tuple[PrimedPopulation, int]],
    ) -> None:
        """Retire the current copy of ``key`` (space + valid-byte books):
        its stored ``entry``, else its ``primed`` (population, index)."""
        if entry is not None:
            value_bytes = entry >> self._place_bits & _VALUE_MASK
            layout = self.layout_for(len(key), value_bytes)
            places = [entry & self._place_mask]
            extra = self._split.pop(key, None)
            if extra is not None:
                places += extra
            for place, nbytes in zip(places, layout.fragments):
                if place:
                    self.array.invalidate((place - 1) // self._pages_per_block, nbytes)
            self.stats.record_remove(len(key), value_bytes, layout.footprint_bytes)
            del self._records[key]
            if key in self._held:
                self._retired.setdefault(key, {})[entry >> self._seq_shift] = entry
        else:
            population, index = primed
            block, _page = population.location_of(index)
            self.array.invalidate(block, population.footprint_bytes)
            population.override(index)
            self.stats.record_remove(
                population.scheme.key_bytes,
                population.value_bytes,
                population.footprint_bytes,
            )

    # ------------------------------------------------------------------
    # FtlCore personality hooks: write pipeline
    # ------------------------------------------------------------------

    def live_bytes(self) -> int:
        return self.stats.device_bytes

    def peek_flush(self) -> Optional[Tuple[int, float]]:
        if not self._pack_queue:
            return None
        return self._pack_pending_bytes, self._pack_queue[0].arrival_us

    def pop_flush_batch(self) -> Optional[FlushBatch]:
        # First-fit in strict arrival order: the log-like, no-rearrangement
        # packing the paper describes.
        batch: List[_QueuedFragment] = []
        room = self.usable_page
        while self._pack_queue and self._pack_queue[0].nbytes <= room:
            fragment = self._pack_queue.popleft()
            self._pack_pending_bytes -= fragment.nbytes
            batch.append(fragment)
            room -= fragment.nbytes
        if not batch:
            return None
        nbytes = sum(fragment.nbytes for fragment in batch)
        return FlushBatch(
            items=batch,
            payload_bytes=nbytes,
            transfer_bytes=self.array.geometry.page_bytes,
        )

    def commit_flush(self, batch: FlushBatch, block: int, page: int) -> None:
        manifest = self._manifests.get(block)
        if manifest is None:
            manifest = self._manifests[block] = BlockManifest()
        owners, codes = manifest.owners, manifest.codes
        records = self._records
        place = block * self._pages_per_block + page + 1
        for fragment in batch.items:
            key = fragment.key
            entry = records.get(key)
            if entry is None or entry >> self._seq_shift != fragment.sequence:
                # Superseded or deleted while queued: dead on arrival.
                self.array.invalidate(block, fragment.nbytes)
                continue
            frag_index = fragment.frag_index
            if frag_index:
                self._split[key][frag_index - 1] = place
            else:
                records[key] = entry | place  # queued, so not placed yet
            owners.append(key)
            codes.append(
                frag_index << FRAG_SHIFT | fragment.nbytes << PAGE_BITS | page
            )

    def drain(self) -> Generator[Event, None, None]:
        """Wait until all accepted stores reach flash."""
        yield from self.core.drain()

    def close(self) -> None:
        """End the core's and the merge engine's workers (see
        :meth:`FtlCore.close`) and empty the flash queues."""
        self.core.close()
        self.merge.close()
        self.array.close()

    # ------------------------------------------------------------------
    # FtlCore personality hooks: garbage collection
    # ------------------------------------------------------------------

    def gc_eligible(self, block_index: int) -> bool:
        return block_index not in self._region_set

    def gc_census(self, victim: int) -> List[GcItem]:
        """Live blobs in ``victim``, from its manifest, in write order."""
        live: List[GcItem] = []
        manifest = self._manifests.get(victim)
        if manifest is None:
            return live
        records = self._records
        base = victim * self._pages_per_block + 1
        for owner, code in zip(manifest.owners, manifest.codes):
            if owner.__class__ is int:  # a primed pair GC moved here
                population = self._populations[owner]
                pair, page = code >> PAGE_BITS, code & PAGE_MASK
                if (
                    not population.overridden[pair >> 3] >> (pair & 7) & 1
                    and population.relocated.get(pair) == victim << 32 | page
                ):
                    live.append(GcItem(
                        ("p", owner, pair), page, population.footprint_bytes
                    ))
            elif owner.__class__ is tuple:  # a run of fill pages
                pop_index = owner[1]
                population = self._populations[pop_index]
                dead, relocated = population.overridden, population.relocated
                for page_seq, page in run_pages(*owner[2:]):
                    for pair in population.indices_in_fill_page(page_seq):
                        if dead[pair >> 3] >> (pair & 7) & 1 or pair in relocated:
                            continue
                        live.append(GcItem(
                            ("p", pop_index, pair), page, population.footprint_bytes
                        ))
            else:  # a stored pair's fragment
                entry = records.get(owner)
                if entry is None:
                    continue
                frag_index, page = code >> FRAG_SHIFT, code & PAGE_MASK
                if self._place_of(owner, entry, frag_index) == base + page:
                    live.append(GcItem(
                        ("r", owner, frag_index), page, code >> PAGE_BITS & BYTES_MASK
                    ))
        return live

    def _place_of(self, key: bytes, entry: int, frag_index: int) -> int:
        """Fragment ``frag_index``'s place in the stored pair ``key``'s
        current copy (``entry``); 0 if unplaced or if it has no such
        fragment."""
        if not frag_index:
            return entry & self._place_mask
        extra = self._split.get(key)
        if extra is None or frag_index > len(extra):
            return 0
        return extra[frag_index - 1]

    def gc_relocate(
        self, item: GcItem, victim: int, target: int, new_page: int, slot: int
    ) -> bool:
        ppb = self._pages_per_block
        if item.ident[0] == "r":
            _tag, key, frag_index = item.ident
            entry = self._records.get(key)
            place = victim * ppb + item.page + 1
            if entry is None or self._place_of(key, entry, frag_index) != place:
                return False
            moved = target * ppb + new_page + 1
            if frag_index:
                self._split[key][frag_index - 1] = moved
            else:
                self._records[key] = entry - place + moved
            owner: object = key
            code = frag_index << FRAG_SHIFT | item.nbytes << PAGE_BITS | new_page
        else:
            _tag, pop_index, pair = item.ident
            population = self._populations[pop_index]
            if population.overridden[pair >> 3] >> (pair & 7) & 1:
                return False
            population.relocate(pair, target, new_page)
            owner, code = pop_index, pair << PAGE_BITS | new_page
        manifest = self._manifests.get(target)
        if manifest is None:
            manifest = self._manifests[target] = BlockManifest()
        manifest.owners.append(owner)
        manifest.codes.append(code)
        self.index.note_update()
        return True

    def gc_cleanup(self, victim: int) -> None:
        self._manifests.pop(victim, None)
        self.merge.kick_if_dirty()

    def mapping_view(self) -> Iterator[Tuple[object, int, int, int]]:
        # Invariant-checker ground truth.  Idents: ("r", key, frag_index)
        # for individually stored fragments (in-flight fragments have no
        # location yet and no valid bytes, so they are rightly absent),
        # ("p", pop_index, pair) for live primed pairs.  O(live pairs)
        # per call — debug/test mode only.
        for key, entry in self._records.items():
            value_bytes = entry >> self._place_bits & _VALUE_MASK
            fragments = self.layout_for(len(key), value_bytes).fragments
            for frag_index, location in enumerate(self.locations_of(key)):
                if location is not None:
                    yield (
                        ("r", key, frag_index),
                        location[0], location[1], fragments[frag_index],
                    )
        for pop_index, population in enumerate(self._populations):
            for pair in range(population.count):
                if population.is_overridden(pair):
                    continue
                block, page = population.location_of(pair)
                yield (
                    ("p", pop_index, pair),
                    block, page, population.footprint_bytes,
                )

    # ------------------------------------------------------------------
    # experiment priming
    # ------------------------------------------------------------------

    def fast_fill(
        self, count: int, value_bytes: int, scheme: Optional[KeyScheme] = None
    ) -> PrimedPopulation:
        """Untimed bulk fill of ``count`` pairs under a key scheme.

        State-identical to storing the pairs and draining, minus simulated
        time (see :func:`repro.kvftl.priming.fast_fill`).
        """
        return priming.fast_fill(self, count, value_bytes, scheme)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    @property
    def occupied_bytes(self) -> int:
        """Device bytes holding live blob data."""
        return self.core.occupied_bytes

    def occupancy_fraction(self) -> float:
        """Live blob bytes over user capacity."""
        return self.core.occupancy_fraction()

    def free_block_count(self) -> int:
        """Erased blocks available for allocation."""
        return self.core.free_block_count()

    def layout_for(self, key_bytes: int, value_bytes: int) -> BlobLayout:
        """Blob layout this device uses for a (key, value) size pair."""
        shape = (key_bytes, value_bytes)
        layout = self._layouts.get(shape)
        if layout is None:
            if len(self._layouts) >= _LAYOUT_SHAPES:
                self._layouts.clear()  # a trace of all-distinct sizes
            layout = self._layouts[shape] = layout_blob(
                key_bytes, value_bytes, self.array.geometry.page_bytes,
                self.config,
            )
        return layout
