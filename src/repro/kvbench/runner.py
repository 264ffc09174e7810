"""Queue-depth workload runner and store adapters.

The runner plays an operation stream against any storage stack at a fixed
queue depth — the paper's asynchronous-I/O methodology ("KVPs are accessed
asynchronously", Sec. III).  ``queue_depth`` workers each hold one
operation in flight, sharing one stream, so device-side concurrency equals
the configured depth exactly.

Adapters translate :class:`~repro.kvbench.workload.Operation` items to
each stack's API behind one :class:`StoreAdapter` protocol: a
:class:`KeyedAdapter` for the three keyed stacks, :class:`BlockAdapter`
for raw block I/O with the same sizes and order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generator,
    Iterable,
    Optional,
    Protocol,
    Union,
)

from repro.errors import DeviceError, WorkloadError
from repro.ftl.core import DeviceStats
from repro.kvbench.workload import (
    Operation,
    OpType,
    WorkloadSpec,
    generate_operations,
)
from repro.metrics.bandwidth import BandwidthTracker
from repro.metrics.latency import LatencyRecorder
from repro.nvme.command import SECTOR_BYTES
from repro.sim.engine import Environment, Event
from repro.units import align_up

if TYPE_CHECKING:
    from repro.api.block import BlockDeviceAPI
    from repro.api.kvs import KVStoreAPI
    from repro.hostkv.hashkv.store import HashKVStore
    from repro.hostkv.lsm.store import LSMStore


class StoreAdapter(Protocol):
    """Everything a driver may use of a store adapter.

    The closed loop needs ``execute`` and ``device``; the rest is what
    :class:`~repro.kvbench.ycsb.YCSBDriver` composes scans and
    read-modify-writes from, ``None`` where a stack has no such thing.
    """

    env: Environment
    #: The flash device underneath, for uniform DeviceStats capture.
    device: Any
    #: ``scan(start_key, count)``: an ordered range read.
    scan: Optional[Callable[[bytes, int], Generator[Event, None, int]]]
    #: ``iterate(prefix4, limit=n)``: the device's prefix iteration.
    iterate: Optional[Callable[..., Generator[Event, None, Any]]]

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        """``op`` as a timed process; returns the bytes it moved."""


class KeyedAdapter:
    """Put/get/delete dispatch: the adapter of all three keyed stacks."""

    def __init__(self, env, device, put, get, delete, scan=None, iterate=None):
        self.env, self.device = env, device
        self._put, self._get, self._delete = put, get, delete
        self.scan, self.iterate = scan, iterate

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        if op.op in (OpType.INSERT, OpType.UPDATE):
            yield from self._put(op.key, op.value_bytes)
            return len(op.key) + op.value_bytes
        if op.op is OpType.READ:
            return (yield from self._get(op.key))
        if op.op is OpType.DELETE:
            yield from self._delete(op.key)
            return len(op.key)
        raise WorkloadError(f"unsupported op {op.op}")


def KVSSDAdapter(api: KVStoreAPI) -> KeyedAdapter:
    """Run operations through the SNIA KVS API."""
    return KeyedAdapter(
        api.env, api.device, api.store, api.retrieve, api.delete, iterate=api.iterate
    )


def LSMAdapter(store: LSMStore) -> KeyedAdapter:
    """Run operations through the LSM store (on ext4 on block)."""
    return KeyedAdapter(
        store.env, store.fs.block_api.device, store.put, store.get,
        store.delete, scan=store.scan,
    )


def HashKVAdapter(store: HashKVStore) -> KeyedAdapter:
    """Run operations through the hash-index store (on raw block)."""
    return KeyedAdapter(
        store.env, store.block_api.device, store.put, store.get, store.delete
    )


class BlockAdapter:
    """Run the same sizes and order as raw block I/O.

    Key index ``i`` maps to device offset ``i * slot`` where ``slot`` is
    the sector-aligned I/O size — the layout a direct-I/O benchmark uses.
    """

    scan = iterate = None

    def __init__(self, api: BlockDeviceAPI, io_bytes: int) -> None:
        if io_bytes < 1:
            raise WorkloadError(f"io size must be >= 1, got {io_bytes}")
        self.api = api
        self.env, self.device = api.env, api.device
        self.io_bytes = align_up(io_bytes, SECTOR_BYTES)
        self.slots = api.device.user_capacity_bytes // self.io_bytes
        if self.slots < 1:
            raise WorkloadError("I/O size exceeds device capacity")

    def _offset(self, key_index: int) -> int:
        return (key_index % self.slots) * self.io_bytes

    def execute(self, op: Operation) -> Generator[Event, None, int]:
        offset = self._offset(op.key_index)
        if op.op in (OpType.INSERT, OpType.UPDATE):
            yield from self.api.write(offset, self.io_bytes)
            return self.io_bytes
        if op.op is OpType.READ:
            yield from self.api.read(offset, self.io_bytes)
            return self.io_bytes
        if op.op is OpType.DELETE:
            yield from self.api.deallocate(offset, self.io_bytes)
            return 0
        raise WorkloadError(f"unsupported op {op.op}")


class _Measured(Protocol):
    @property
    def completed_ops(self) -> int: ...

    @property
    def elapsed_us(self) -> float: ...


class Throughput:
    """``throughput_kops()`` for any result with an op count and a window."""

    def throughput_kops(self: _Measured) -> float:
        """Completed operations per millisecond of simulated time."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed_ops / (self.elapsed_us / 1000.0)


class Window(Throughput):
    """A measured window stamped ``started_us`` .. ``finished_us``."""

    started_us: float
    finished_us: float

    @property
    def elapsed_us(self) -> float:
        return self.finished_us - self.started_us


@dataclass
class RunResult(Window):
    """Everything a measured phase produced."""

    latency: LatencyRecorder
    bandwidth: BandwidthTracker
    started_us: float = 0.0
    finished_us: float = 0.0
    completed_ops: int = 0
    failed_ops: int = 0
    extras: dict = field(default_factory=dict)
    #: Device telemetry delta over the measured phase — the same
    #: DeviceStats struct regardless of which personality ran underneath.
    device_stats: Optional[DeviceStats] = None


#: ``done(item, started_us, value, error)``: how :func:`serve_ops` reports
#: each terminal operation; ``error`` is ``None`` exactly on success.
OpDone = Callable[[Any, float, Any, Optional[DeviceError]], None]


def serve_ops(
    env: Environment,
    execute: Callable[[Any], Generator[Event, None, Any]],
    items: Iterable[Any],
    done: OpDone,
    hop_us: float = 0.0,
    deadline_us: float = float("inf"),
) -> Generator[Event, None, None]:
    """The per-op envelope, over every item of ``items`` in turn.

    Stamp the start, spend ``hop_us`` (a routing hop inside the op's
    latency window), run ``execute(item)`` as a child (``env.call``: the
    events of a process of its own, without one), and hand the outcome to
    ``done``.  Device errors are outcomes, not raised — a
    benchmark keeps going like fio does.  Once the clock reaches
    ``deadline_us`` the loop stops taking items.  Every driver in the
    tree issues operations through this one loop: the closed-loop pool
    runs it ``depth`` times over a shared iterator, the serving frontend
    runs it once per dispatched request.
    """
    for item in items:
        started = env.now
        if started >= deadline_us:
            return
        if hop_us > 0.0:
            yield env.sleep(hop_us)
        try:
            value = yield from env.call(execute(item))
        except DeviceError as error:
            done(item, started, None, error)
        else:
            done(item, started, value, None)


def closed_loop(
    env: Environment,
    name: str,
    depth: int,
    execute: Callable[[Any], Generator[Event, None, Any]],
    items: Iterable[Any],
    done: OpDone,
    hop_us: float = 0.0,
    deadline_us: float = float("inf"),
) -> Event:
    """Event firing once ``depth`` workers have drained ``items``.

    Each worker (process ``{name}.w{i}``) is a :func:`serve_ops` over one
    shared iterator, so exactly ``depth`` operations are in flight until
    the stream runs dry.
    """
    if depth < 1:
        raise WorkloadError(f"queue depth must be >= 1, got {depth}")
    stream = iter(items)
    return env.all_of([
        env.process(
            serve_ops(env, execute, stream, done, hop_us, deadline_us),
            name=f"{name}.w{i}",
        )
        for i in range(depth)
    ])


def drive_workload(
    env: Environment,
    adapter: StoreAdapter,
    operations: Iterable[Operation],
    queue_depth: int = 1,
    bandwidth_window_us: float = 50_000.0,
    name: str = "run",
    stop_after_us: float = float("inf"),
) -> Generator[Event, None, RunResult]:
    """Generator process executing ``operations`` at ``queue_depth``.

    Latencies are recorded per op type; completions feed a windowed
    bandwidth tracker.  Failed operations (device errors, absent keys)
    are counted, not raised.
    ``stop_after_us`` bounds the measured phase in simulated time: once
    the deadline passes, workers stop taking new operations (a duration-
    bounded run, like fio's ``runtime=``).
    """
    started_us = env.now
    result = RunResult(
        latency=LatencyRecorder(name),
        bandwidth=BandwidthTracker(bandwidth_window_us, started_us, name),
        started_us=started_us,
    )
    device = adapter.device
    stats_before = device.stats.snapshot() if device is not None else None

    def done(op: Operation, started: float, nbytes: Any,
             error: Optional[DeviceError]) -> None:
        if error is not None:
            result.failed_ops += 1
            return
        result.latency.record(env.now - started, op.op.value)
        result.bandwidth.record(env.now, nbytes or 0)
        result.completed_ops += 1

    yield closed_loop(
        env, name, queue_depth, adapter.execute, operations, done,
        deadline_us=env.now + stop_after_us,
    )
    result.finished_us = env.now
    result.bandwidth.finish(env.now)
    if device is not None:
        result.device_stats = device.stats.delta(stats_before)
    return result


def execute_workload(
    env: Environment,
    adapter: StoreAdapter,
    operations: Iterable[Operation],
    queue_depth: int = 1,
    bandwidth_window_us: float = 50_000.0,
    name: str = "run",
    stop_after_us: float = float("inf"),
) -> RunResult:
    """Convenience wrapper: run :func:`drive_workload` to completion."""
    process = env.process(
        drive_workload(
            env,
            adapter,
            operations,
            queue_depth,
            bandwidth_window_us,
            name,
            stop_after_us,
        ),
        name=name,
    )
    return env.run_until_complete(process)


def run_phase(
    rig: Any,
    name: str,
    workload: Union[WorkloadSpec, Iterable[Operation]],
    queue_depth: int,
    adapter: Any = None,
    drain: bool = True,
    **run_options: float,
) -> RunResult:
    """One measured phase on ``rig``: run ``workload``, then settle.

    ``workload`` is a spec to generate from or a ready operation stream;
    ``adapter`` defaults to the rig's own (sized stacks pass
    ``rig.adapter_for(io_bytes)``).  ``drain=False`` is for cells whose
    rig is discarded right after — bandwidth sweeps, and Fig. 6, whose
    collapsed device would take arbitrarily long to settle.
    """
    if isinstance(workload, WorkloadSpec):
        workload = generate_operations(workload)
    run = execute_workload(
        rig.env,
        adapter or rig.adapter,
        workload,
        queue_depth=queue_depth,
        name=name,
        **run_options,
    )
    if drain:
        rig.drain()
    return run
