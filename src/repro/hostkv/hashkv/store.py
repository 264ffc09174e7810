"""Hash-index key-value store over raw block storage (Aerospike stand-in).

The paper uses Aerospike with direct device access as its second baseline:
a primary index held entirely in host DRAM (no LSM levels, no compaction)
with records packed into large *write blocks* that are appended to the raw
device and defragmented in the background.  Its architecture is the
host-side mirror of the KV-SSD's own design — hash index plus log packing
— which is why the paper picks it (Sec. III).

Modeled mechanics, each load-bearing for a figure:

* records are ``header + key digest + value`` rounded up to the 16-byte
  RBLOCK unit, packed into 128 KiB write blocks -> space amplification
  below 2 even for 50 B values (Fig. 7's Aerospike line);
* reads are one DRAM index lookup plus one sector-aligned device read ->
  read latency close to raw block I/O, beating KV-SSD's in-device index
  walk (Fig. 2c);
* updates append a new copy and strand the old one, so sustained updates
  breed defragmentation traffic that competes with foreground I/O ->
  update latency degrades until KV-SSD wins (Fig. 2b, the paper's 3.64x).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional, Set

from repro.api.block import BlockDeviceAPI
from repro.errors import ConfigurationError, DeviceFullError, KeyNotFoundError
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Environment, Event
from repro.sim.resources import TokenBucket
from repro.sim.signal import Signal
from repro.units import KIB, align_up


@dataclass(frozen=True)
class HashKVConfig:
    """Engine shape and host CPU costs."""

    write_block_bytes: int = 128 * KIB
    rblock_bytes: int = 16
    record_header_bytes: int = 35
    key_digest_bytes: int = 20
    #: Write blocks below this live fraction are defragmented.
    defrag_threshold: float = 0.5
    #: Flush concurrency cap (backpressure for the append stream).
    max_pending_flushes: int = 4
    sector_bytes: int = 512

    put_cpu_us: float = 6.0
    get_cpu_us: float = 5.0
    delete_cpu_us: float = 4.0
    defrag_entry_cpu_us: float = 0.5

    def __post_init__(self) -> None:
        if self.write_block_bytes % self.sector_bytes:
            raise ConfigurationError("write block must be sector-aligned")
        if not 0.0 < self.defrag_threshold < 1.0:
            raise ConfigurationError("defrag threshold must be in (0, 1)")
        if self.rblock_bytes < 1 or self.max_pending_flushes < 1:
            raise ConfigurationError("rblock and flush cap must be >= 1")


@dataclass
class _RecordLocation:
    """Where a key's current record lives."""

    wblock: int
    offset: int  # byte offset within the write block
    rbytes: int
    value_bytes: int


class HashKVStore:
    """Aerospike-like store over a :class:`BlockDeviceAPI`."""

    def __init__(
        self,
        env: Environment,
        block_api: BlockDeviceAPI,
        config: Optional[HashKVConfig] = None,
        component: str = "hashkv",
    ) -> None:
        self.env = env
        self.block_api = block_api
        self.config = config or HashKVConfig()
        self.component = component
        self._cpu = block_api.driver.cpu
        capacity = block_api.device.user_capacity_bytes
        self.n_wblocks = capacity // self.config.write_block_bytes
        if self.n_wblocks < 4:
            raise ConfigurationError("device too small for four write blocks")
        self._free: Deque[int] = deque(range(self.n_wblocks))
        self._live_bytes: Dict[int, int] = {}
        self._fill_bytes: Dict[int, int] = {}
        self._flushed: Set[int] = set()
        self._index: Dict[bytes, _RecordLocation] = {}
        self._defrag_queue: Deque[int] = deque()
        self._defrag_queued: Set[int] = set()
        self._defrag_wake = Signal(env, f"{component}.defrag")
        self._space_freed = Signal(env, f"{component}.freed")
        self._flush_tokens = TokenBucket(
            env, self.config.max_pending_flushes, name=f"{component}.flush"
        )
        self._current = self._free.popleft()
        self._live_bytes[self._current] = 0
        self._fill_bytes[self._current] = 0
        self._rolling = False
        self._roll_done = Signal(env, f"{component}.rolled")
        self.defrag_runs = 0
        self.defrag_moved_bytes = 0
        self.app_bytes_stored = 0
        env.process(self._defrag_worker(), name=f"{component}.defrag")

    # ------------------------------------------------------------------
    # record geometry
    # ------------------------------------------------------------------

    def record_bytes(self, value_bytes: int) -> int:
        """On-device size of a record holding ``value_bytes``."""
        if value_bytes < 0:
            raise ConfigurationError(f"negative value size {value_bytes}")
        raw = (
            self.config.record_header_bytes
            + self.config.key_digest_bytes
            + value_bytes
        )
        return align_up(raw, self.config.rblock_bytes)

    def _wblock_offset(self, wblock: int) -> int:
        return wblock * self.config.write_block_bytes

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def put(self, key: bytes, value_bytes: int) -> Generator[Event, None, None]:
        """Insert or update a key (timed)."""
        self._cpu.charge(self.component, self.config.put_cpu_us)
        rbytes = self.record_bytes(value_bytes)
        if rbytes > self.config.write_block_bytes:
            raise ConfigurationError(
                f"record of {rbytes}B exceeds a write block"
            )
        yield from self._ensure_room(rbytes)
        # Resolve the old copy only after the suspension points above: a
        # concurrent defrag may have relocated it meanwhile.
        old = self._index.get(key)
        offset = self._fill_bytes[self._current]
        self._fill_bytes[self._current] += rbytes
        self._live_bytes[self._current] += rbytes
        self._index[key] = _RecordLocation(
            self._current, offset, rbytes, value_bytes
        )
        self.app_bytes_stored += len(key) + value_bytes
        if old is not None:
            self._retire(old)

    def get(self, key: bytes) -> Generator[Event, None, int]:
        """Point lookup; returns the value size (timed)."""
        self._cpu.charge(self.component, self.config.get_cpu_us)
        location = self._index.get(key)
        if location is None:
            raise KeyNotFoundError(f"key {key!r} not in hash store")
        if location.wblock not in self._flushed:
            # Still in the host-side write buffer: DRAM copy only.
            return location.value_bytes
        start = self._wblock_offset(location.wblock) + location.offset
        aligned_start = start - start % self.config.sector_bytes
        aligned_end = align_up(start + location.rbytes, self.config.sector_bytes)
        yield from self.block_api.read(aligned_start, aligned_end - aligned_start)
        return location.value_bytes

    def delete(self, key: bytes) -> Generator[Event, None, None]:
        """Remove a key (timed; index update plus space retirement)."""
        self._cpu.charge(self.component, self.config.delete_cpu_us)
        location = self._index.pop(key, None)
        if location is None:
            raise KeyNotFoundError(f"key {key!r} not in hash store")
        self._retire(location)
        yield self.env.sleep(0.0)

    def drain(self) -> Generator[Event, None, None]:
        """Flush the current write block and settle in-flight flushes."""
        if self._fill_bytes[self._current] > 0:
            yield from self._ensure_room(self.config.write_block_bytes)
        while self._flush_tokens.available < self._flush_tokens.capacity:
            yield self.env.sleep(100.0)

    # ------------------------------------------------------------------
    # write-block lifecycle
    # ------------------------------------------------------------------

    def _ensure_room(self, rbytes: int) -> Generator[Event, None, None]:
        """Guarantee the current block can take ``rbytes``.

        Serializes block rolls: concurrent writers that find the block
        full wait for the in-flight roll instead of double-flushing it.
        """
        while True:
            if self._rolling:
                yield self._roll_done.park()
                continue
            if (
                self._fill_bytes[self._current] + rbytes
                <= self.config.write_block_bytes
            ):
                return
            self._rolling = True
            try:
                yield from self._roll_write_block()
            finally:
                self._rolling = False
                self._roll_done.notify_all()

    def _roll_write_block(self) -> Generator[Event, None, None]:
        """Flush the current block to the device and open a fresh one."""
        full_block = self._current
        if not self._flush_tokens.take(1):
            yield self._flush_tokens.get(1)
        self.env.process(self._flush_block(full_block), name=f"{self.component}.fl")
        while not self._free:
            if not self._defrag_queue and not self._defrag_candidates():
                raise DeviceFullError("hash store out of write blocks")
            self._defrag_wake.notify_all()
            yield self._space_freed.park()
        self._current = self._free.popleft()
        self._live_bytes[self._current] = 0
        self._fill_bytes[self._current] = 0

    def _flush_block(self, wblock: int) -> Generator[Event, None, None]:
        try:
            yield from self.block_api.write(
                self._wblock_offset(wblock), self.config.write_block_bytes
            )
            self._flushed.add(wblock)
        finally:
            self._flush_tokens.put(1)

    def _retire(self, location: _RecordLocation) -> None:
        """Account a record's death; queue its block for defrag if idle."""
        self._live_bytes[location.wblock] -= location.rbytes
        if self._live_bytes[location.wblock] < 0:
            raise ConfigurationError("write-block live bytes went negative")
        self._maybe_queue_defrag(location.wblock)

    def _maybe_queue_defrag(self, wblock: int) -> None:
        if wblock == self._current or wblock in self._defrag_queued:
            return
        if wblock not in self._flushed:
            return
        fraction = self._live_bytes[wblock] / self.config.write_block_bytes
        if fraction < self.config.defrag_threshold:
            self._defrag_queued.add(wblock)
            self._defrag_queue.append(wblock)
            self._defrag_wake.notify_all()

    def _defrag_candidates(self) -> bool:
        """Whether any flushed block is below the defrag threshold."""
        threshold = self.config.defrag_threshold * self.config.write_block_bytes
        return any(
            self._live_bytes[wblock] < threshold
            for wblock in self._flushed
            if wblock != self._current
        )

    # ------------------------------------------------------------------
    # defragmentation
    # ------------------------------------------------------------------

    def _defrag_worker(self) -> Generator[Event, None, None]:
        while True:
            if not self._defrag_queue:
                yield self.env.any_of(
                    [self._defrag_wake.wait(), self.env.timeout(2000.0)]
                )
                continue
            wblock = self._defrag_queue.popleft()
            self._defrag_queued.discard(wblock)
            yield from self._defrag_block(wblock)

    def _defrag_block(self, wblock: int) -> Generator[Event, None, None]:
        """Move a cold block's live records into the current append stream."""
        if wblock == self._current or wblock not in self._flushed:
            return
        self.defrag_runs += 1
        yield from self.block_api.read(
            self._wblock_offset(wblock), self.config.write_block_bytes
        )
        movers = [
            (key, location)
            for key, location in self._index.items()
            if location.wblock == wblock
        ]
        for key, location in movers:
            if self._index.get(key) is not location:
                # Updated or deleted while we yielded; already retired.
                continue
            self._cpu.charge(self.component, self.config.defrag_entry_cpu_us)
            yield from self._ensure_room(location.rbytes)
            if self._index.get(key) is not location:
                # Raced with an update while waiting for room.
                continue
            offset = self._fill_bytes[self._current]
            self._fill_bytes[self._current] += location.rbytes
            self._live_bytes[self._current] += location.rbytes
            self._live_bytes[wblock] -= location.rbytes
            self._index[key] = _RecordLocation(
                self._current, offset, location.rbytes, location.value_bytes
            )
            self.defrag_moved_bytes += location.rbytes
        if self._live_bytes[wblock] != 0:
            raise ConfigurationError(
                f"defragged block {wblock} kept {self._live_bytes[wblock]}B live"
            )
        self._flushed.discard(wblock)
        del self._live_bytes[wblock]
        del self._fill_bytes[wblock]
        self._free.append(wblock)
        self._space_freed.notify_all()

    # ------------------------------------------------------------------
    # priming and observability
    # ------------------------------------------------------------------

    def fast_fill(
        self, count: int, value_bytes: int, scheme: Optional[KeyScheme] = None
    ) -> KeyScheme:
        """Untimed bulk load of ``count`` pairs under a key scheme.

        Mirrors the KV device's ``fast_fill``: index, write-block state and
        the underlying device mapping end up as after a real load.
        """
        scheme = scheme or KeyScheme()
        if count < 1:
            raise ConfigurationError(f"fill count must be >= 1, got {count}")
        if count > 10 ** scheme.digits:
            raise ConfigurationError(
                f"fill of {count} pairs overflows {scheme.digits}-digit keys"
            )
        rbytes = self.record_bytes(value_bytes)
        wblock_bytes = self.config.write_block_bytes
        per_block = wblock_bytes // rbytes
        needed_blocks = -(-count // per_block)
        if needed_blocks > len(self._free):
            raise DeviceFullError(
                f"fill needs {needed_blocks} write blocks, "
                f"{len(self._free)} free"
            )
        device = self.block_api.device
        filled = 0
        while filled < count:
            wblock = self._free.popleft()
            here = min(per_block, count - filled)
            self._fill_bytes[wblock] = here * rbytes
            self._live_bytes[wblock] = here * rbytes
            for slot in range(here):
                key = scheme.key_for(filled + slot)
                self._index[key] = _RecordLocation(
                    wblock, slot * rbytes, rbytes, value_bytes
                )
            start = self._wblock_offset(wblock)
            device.prime_sequential_fill(
                wblock_bytes // device.map_unit, start // device.map_unit
            )
            self._flushed.add(wblock)
            self.app_bytes_stored += here * (scheme.key_bytes + value_bytes)
            filled += here
        return scheme

    def live_keys(self) -> int:
        """Number of keys currently indexed."""
        return len(self._index)

    def used_device_bytes(self) -> int:
        """Device bytes consumed by populated write blocks."""
        used_blocks = self.n_wblocks - len(self._free)
        return used_blocks * self.config.write_block_bytes

    def record_device_bytes(self) -> int:
        """Bytes of live records (tight packing view)."""
        return sum(location.rbytes for location in self._index.values())

    def space_amplification(self) -> float:
        """Live record bytes over application bytes (Fig. 7 metric).

        Uses the record view (header + digest + rblock rounding); block-
        level fragmentation is bounded by the defrag threshold and is
        reported separately via :meth:`used_device_bytes`.
        """
        app = sum(
            len(key) + location.value_bytes
            for key, location in self._index.items()
        )
        if app == 0:
            raise ConfigurationError("no live data to measure amplification")
        return self.record_device_bytes() / app
