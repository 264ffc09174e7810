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
from dataclasses import dataclass, field
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
from repro.flash.timing import FlashTiming
from repro.ftl.core import DeviceStats, FlushBatch, FtlCore, GcItem
from repro.kvftl import priming
from repro.kvftl.blob import (
    BlobLayout,
    layout_blob,
    usable_page_bytes,
    validate_key,
    validate_value_size,
)
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.hashindex import GlobalHashIndex
from repro.kvftl.indexmanager import BloomModel
from repro.kvftl.iterator import IteratorBuckets
from repro.kvftl.merge import MergeEngine
from repro.kvftl.population import KeyScheme, PrimedPopulation, run_pages
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.trace.tracer import NULL_SPAN, Tracer
from repro.units import KIB, ceil_div


#: Shapes a device keeps layouts for (workloads use a handful).
_LAYOUT_SHAPES = 4096


@dataclass(slots=True)
class _Record:
    """Device-side state of one individually stored pair."""

    sequence: int
    key_bytes: int
    value_bytes: int
    fragments: Tuple[int, ...]
    #: (block, page) per fragment; None while awaiting packing.
    locations: List[Optional[Tuple[int, int]]] = field(default_factory=list)

    @property
    def footprint_bytes(self) -> int:
        return sum(self.fragments)


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
        timing: Optional[FlashTiming] = None,
        config: Optional[KVSSDConfig] = None,
        name: str = "kv-ssd",
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.config = config or KVSSDConfig()
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
        self.usable_page = usable_page_bytes(geometry.page_bytes, self.config)

        # -- index region carved out of the array ------------------------
        # Marked CLOSED and fully programmed *before* the core builds its
        # free pool, so neither allocation nor GC ever touches it.
        region_count = max(
            1, int(geometry.total_blocks * self.config.index_region_fraction)
        )
        self._index_region = list(range(region_count))
        for block in self._index_region:
            info = self.array.blocks[block]
            info.state = BlockState.CLOSED
            info.next_page = geometry.pages_per_block
        self._region_set = set(self._index_region)

        data_blocks = geometry.total_blocks - region_count
        raw_data = data_blocks * geometry.block_bytes
        self.user_capacity_bytes = int(raw_data * (1.0 - self.config.overprovision))
        # The KVP limit binds on the index region: each pair needs a hash
        # slot, and the table cannot exceed its load factor.
        region_bytes = region_count * geometry.block_bytes
        self.max_kvps = int(region_bytes / self.config.index_slot_bytes)

        dram = self.config.index_dram_bytes
        if dram is None:
            # Scale the real drive's DRAM:capacity proportion (4 GiB DRAM
            # serving a 3.84 TB device ~= 0.00104 bytes of DRAM per byte).
            dram = max(256 * KIB, int(geometry.capacity_bytes * 0.00104))
        self.index = GlobalHashIndex(
            self.config,
            geometry.page_bytes,
            dram,
            self._index_region,
            geometry.pages_per_block,
        )
        #: The controller's index-manager units: ``serve(us)`` occupies one.
        self.index_managers = Resource(
            env, self.config.index_managers, name=f"{name}.idxmgr"
        )
        self.bloom = BloomModel(self.config.bloom_fp_rate)
        self.iterators = IteratorBuckets(self.config.iterator_flush_keys)
        self.controller = Resource(
            env, self.config.controller_cores, name=f"{name}.ctl"
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
            page_payload_bytes=self.usable_page,
            user_capacity_bytes=self.user_capacity_bytes,
            spare_block_limit=self.config.spare_block_limit,
            tracer=self.tracer,
            invariants=self.config.invariants,
            name=name,
        )
        self.pool = self.core.pool
        self.buffer = self.core.buffer

        self._records: Dict[bytes, _Record] = {}
        #: (key bytes, value bytes) -> layout: a pure function of the shape
        #: on this device's page size and config, so computed once.
        self._layouts: Dict[Tuple[int, int], BlobLayout] = {}
        self._populations: List[PrimedPopulation] = []
        #: Key prefix -> position in ``_populations``, and the distinct
        #: prefix lengths: a key names at most one population per length.
        self._population_of_prefix: Dict[bytes, int] = {}
        self._prefix_lengths: List[int] = []
        self._manifests: Dict[int, List[tuple]] = {}
        self._pack_queue: Deque[_QueuedFragment] = deque()
        self._pack_pending_bytes = 0
        self._sequence = 0
        self.live_kvps = 0

        self.merge = MergeEngine(
            env, self.array, self.timing, self.index, self.config, self.stats, name
        )

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------

    def _find_live(
        self, key: bytes
    ) -> Optional[Tuple[str, object]]:
        """Locate a live pair: ('record', rec) or ('primed', (pop, idx))."""
        record = self._records.get(key)
        if record is not None:
            return ("record", record)
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
        return ("primed", (self._populations[found[0]], found[1]))

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
        return self._find_live(key) is not None

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
        validate_key(key, self.config)
        validate_value_size(value_bytes, self.config)
        self.core.ensure_writable()
        layout = self.layout_for(len(key), value_bytes)
        span.enter("controller")
        yield self.controller.serve(
            self.config.host_interface_us * ncommands
            + self.config.store_controller_us
        )
        if layout.is_split:
            # Splitting and offset-pointer management per extra fragment.
            yield self.controller.serve(
                self.config.split_fragment_us * (layout.data_fragments - 1)
            )
        span.enter("index")
        yield self.index_managers.serve(self.config.store_index_us)
        if self.merge.behind():
            yield from self.merge.backpressure()

        # Resolved after the suspension points above: a concurrent store of
        # the same key may have landed while we waited at the index.
        existing = self._find_live(key)
        if existing is None:
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
            len(self.pool) <= self.config.gc_reserve_blocks + 1
            and not self.core.has_reclaimable_victim()
        ):
            raise DeviceFullError(
                "free pool exhausted and garbage collection cannot reclaim "
                "net pages"
            )

        # Admission happens per fragment below so a value larger than the
        # device buffer cannot deadlock against its own packing; the
        # record is created first so queued fragments resolve against it.
        if existing is not None:
            self._invalidate_live(key, existing)
            self.index.note_update()
        else:
            self.index.note_insert()
            self.live_kvps += 1
            if self.iterators.note_store(key):
                self.merge.iterator_flush_backlog += 1
        self.merge.kick_if_dirty()

        self._sequence += 1
        record = _Record(
            sequence=self._sequence,
            key_bytes=len(key),
            value_bytes=value_bytes,
            fragments=tuple(layout.fragments),
            locations=[None] * len(layout.fragments),
        )
        self._records[key] = record
        self.stats.record_store(len(key), value_bytes, layout.footprint_bytes)
        for frag_index, nbytes in enumerate(layout.fragments):
            span.enter("buffer")
            yield from self.buffer.admit(nbytes)
            span.enter("controller")
            yield self.controller.serve(
                self.config.buffer_copy_us_per_kib * nbytes / KIB
            )
            self._pack_queue.append(
                _QueuedFragment(key, frag_index, nbytes, record.sequence, self.env.now)
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
        validate_key(key, self.config)
        span.enter("controller")
        yield self.controller.serve(
            self.config.host_interface_us * ncommands
            + self.config.retrieve_controller_us
        )
        span.enter("index")
        yield self.index_managers.serve(self.config.retrieve_index_us)
        found = self._find_live(key)
        if not self.bloom.maybe_present(key, found is not None):
            raise KeyNotFoundError(f"key {key!r} not stored (bloom negative)")
        for _ in range(self.index.lookup_flash_reads(key)):
            yield from self.merge.index_page_read()
        if found is None:
            raise KeyNotFoundError(f"key {key!r} not stored")

        kind, payload = found
        if kind == "record":
            record = payload
            procs = []
            for frag_index, location in enumerate(record.locations):
                if location is None:
                    span.enter("controller")
                    yield self.controller.serve(self.config.buffer_read_us)
                    continue
                block, page = location
                procs.append(
                    self.env.process(
                        self.core.read_page(
                            block, page, record.fragments[frag_index]
                        )
                    )
                )
            if procs:
                # Parallel fragment reads share the op's flash phase, so
                # any retry time lands there too (per-fragment recovery
                # attribution would require splitting the all_of wait).
                span.enter("flash")
                yield self.env.all_of(procs)
            value_bytes = record.value_bytes
        else:
            population, index = payload
            block, page = population.location_of(index)
            yield from self.core.read_page(
                block, page, population.footprint_bytes, span=span
            )
            value_bytes = population.value_bytes
        self.stats.host_reads += 1
        self.stats.host_read_bytes += value_bytes
        return value_bytes

    def exist(
        self, key: bytes, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, bool]:
        """Membership query (timed); no data page access."""
        validate_key(key, self.config)
        span.enter("controller")
        yield self.controller.serve(
            self.config.host_interface_us * ncommands
        )
        span.enter("index")
        yield self.index_managers.serve(self.config.exist_index_us)
        found = self._find_live(key) is not None
        if not self.bloom.maybe_present(key, found):
            return False
        for _ in range(self.index.lookup_flash_reads(key)):
            yield from self.merge.index_page_read()
        return found

    def delete(
        self, key: bytes, ncommands: int = 1, span=NULL_SPAN
    ) -> Generator[Event, None, None]:
        """Delete a pair (timed)."""
        validate_key(key, self.config)
        span.enter("controller")
        yield self.controller.serve(
            self.config.host_interface_us * ncommands
        )
        span.enter("index")
        yield self.index_managers.serve(self.config.delete_index_us)
        found = self._find_live(key)
        if not self.bloom.maybe_present(key, found is not None):
            raise KeyNotFoundError(f"key {key!r} not stored (bloom negative)")
        for _ in range(self.index.lookup_flash_reads(key)):
            yield from self.merge.index_page_read()
        if found is None:
            raise KeyNotFoundError(f"key {key!r} not stored")
        if self.merge.behind():
            yield from self.merge.backpressure()
        self._invalidate_live(key, found)
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
        yield self.controller.serve(
            self.config.host_interface_us * ncommands
        )
        span.enter("index")
        yield self.index_managers.serve(self.config.exist_index_us)
        count = self.iterators.bucket_count(prefix4)
        # Bucket pages hold ~page/64B key entries each.
        keys_per_page = max(1, self.array.geometry.page_bytes // 64)
        for _ in range(ceil_div(max(count, 1), keys_per_page)):
            yield from self.merge.index_page_read()
        matches: List[bytes] = [
            key for key in self._records if key[:4] == prefix4
        ]
        for population in self._populations:
            pairs = population.scheme.indices_starting(prefix4)
            for pair in range(pairs.start, min(pairs.stop, population.count)):
                if len(matches) >= limit and count > limit:
                    break
                if pair in population.overridden:
                    continue
                matches.append(population.scheme.key_for(pair))
        matches.sort()
        return matches[:limit]

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------

    def _invalidate_live(self, key: bytes, found: Tuple[str, object]) -> None:
        """Retire the current copy of ``key`` (space + valid-byte books)."""
        kind, payload = found
        if kind == "record":
            record = payload
            for frag_index, location in enumerate(record.locations):
                if location is not None:
                    self.array.invalidate(location[0], record.fragments[frag_index])
            self.stats.record_remove(
                record.key_bytes, record.value_bytes, record.footprint_bytes
            )
            del self._records[key]
        else:
            population, index = payload
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
        manifest = self._manifests.setdefault(block, [])
        for fragment in batch.items:
            record = self._records.get(fragment.key)
            if record is None or record.sequence != fragment.sequence:
                # Superseded or deleted while queued: dead on arrival.
                self.array.invalidate(block, fragment.nbytes)
                continue
            record.locations[fragment.frag_index] = (block, page)
            manifest.append(
                ("r", fragment.key, fragment.frag_index, page, fragment.nbytes)
            )

    def drain(self) -> Generator[Event, None, None]:
        """Wait until all accepted stores reach flash."""
        yield from self.core.drain()

    # ------------------------------------------------------------------
    # FtlCore personality hooks: garbage collection
    # ------------------------------------------------------------------

    def gc_eligible(self, block_index: int) -> bool:
        return block_index not in self._region_set

    def gc_census(self, victim: int) -> List[GcItem]:
        """Live blobs in ``victim``, from its manifest."""
        live: List[GcItem] = []
        for entry in self._manifests.get(victim, []):
            if entry[0] == "r":
                _tag, key, frag_index, page, nbytes = entry
                record = self._records.get(key)
                if (
                    record is not None
                    and frag_index < len(record.locations)
                    and record.locations[frag_index] == (victim, page)
                ):
                    live.append(GcItem(("r", key, frag_index), page, nbytes))
            elif entry[0] == "pr":
                pop_index = entry[1]
                population = self._populations[pop_index]
                for page_seq, page in run_pages(*entry[2:]):
                    for pair in population.indices_in_fill_page(page_seq):
                        if pair in population.overridden or pair in population.relocated:
                            continue
                        live.append(
                            GcItem(
                                ("p", pop_index, pair), page, population.footprint_bytes
                            )
                        )
            elif entry[0] == "p":
                _tag, pop_index, pair, page, nbytes = entry
                population = self._populations[pop_index]
                if (
                    pair not in population.overridden
                    and population.relocated.get(pair) == (victim, page)
                ):
                    live.append(GcItem(("p", pop_index, pair), page, nbytes))
            else:  # pragma: no cover - manifest corruption guard
                raise ConfigurationError(f"unknown manifest entry {entry!r}")
        return live

    def gc_relocate(
        self, item: GcItem, victim: int, target: int, new_page: int, slot: int
    ) -> bool:
        kind = item.ident[0]
        if kind == "r":
            _tag, key, frag_index = item.ident
            record = self._records.get(key)
            if (
                record is None
                or frag_index >= len(record.locations)
                or record.locations[frag_index] != (victim, item.page)
            ):
                return False
            record.locations[frag_index] = (target, new_page)
            self._manifests.setdefault(target, []).append(
                ("r", key, frag_index, new_page, item.nbytes)
            )
        else:
            _tag, pop_index, pair = item.ident
            population = self._populations[pop_index]
            if pair in population.overridden:
                return False
            population.relocate(pair, target, new_page)
            self._manifests.setdefault(target, []).append(
                ("p", pop_index, pair, new_page, item.nbytes)
            )
        self.index.note_update()
        return True

    def gc_cleanup(self, victim: int) -> None:
        self._manifests[victim] = []
        self.merge.kick_if_dirty()

    def mapping_view(self) -> Iterator[Tuple[object, int, int, int]]:
        # Invariant-checker ground truth.  Idents: ("r", key, frag_index)
        # for individually stored fragments (in-flight fragments have no
        # location yet and no valid bytes, so they are rightly absent),
        # ("p", pop_index, pair) for live primed pairs.  O(live pairs)
        # per call — debug/test mode only.
        for key, record in self._records.items():
            for frag_index, location in enumerate(record.locations):
                if location is not None:
                    yield (
                        ("r", key, frag_index),
                        location[0], location[1],
                        record.fragments[frag_index],
                    )
        for pop_index, population in enumerate(self._populations):
            for pair in range(population.count):
                if pair in population.overridden:
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
