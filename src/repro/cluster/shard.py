"""One shard's simulation cell: the unit the process pool executes.

:func:`run_shard` is a module-level function of ``(spec, shard)`` — the
shape the sweep engine requires for pickling and content-addressed
caching.  It re-derives the shard's routed program from the spec, builds
a fresh rig of the shard's personality, primes its partitions, plays the
program's segments at the configured queue depth (charging the simulated
router hop before every device operation), performs the planned
read-only degradation through the real fault machinery, and finally
verifies that every key the shard is still obligated to hold is
readable on the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Tuple, Union

from repro.blockftl.config import BlockSSDConfig
from repro.cluster.router import PlannedOp, ShardProgram, shard_plan
from repro.cluster.spec import ClusterSpec
from repro.core.experiment import (
    BlockRig,
    KVRig,
    build_block_rig,
    build_kv_rig,
    lab_geometry,
)
from repro.errors import DeviceError, SimulationError
from repro.faults.model import FaultConfig
from repro.ftl.core import DeviceStats
from repro.kvbench.runner import BlockAdapter
from repro.kvbench.workload import Operation, OpType
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.sim.engine import Environment, Event
from repro.trace.tracer import TraceCollector, TraceConfig, Tracer

#: Give up tripping read-only after this many sacrificial write rounds.
_DEGRADE_ATTEMPTS = 40
#: Settle time between sacrificial rounds (background retirement runs).
_DEGRADE_SETTLE_US = 50_000.0
#: Value size of sacrificial degrade writes.
_DEGRADE_VALUE_BYTES = 1024


@dataclass
class ShardResult:
    """Everything one shard's run produced (picklable, cacheable)."""

    shard: int
    name: str
    personality: str
    started_us: float = 0.0
    finished_us: float = 0.0
    completed_ops: int = 0
    failed_ops: int = 0
    #: Simulated time spent in the routing hop, for router-vs-device
    #: attribution (total op latency minus this is device time).
    router_us_total: float = 0.0
    #: Sum of recorded end-to-end op latencies (router hop included).
    op_time_us_total: float = 0.0
    #: Writes burned to exhaust the spare budget (never client traffic).
    sacrificial_writes: int = 0
    #: Operations shed before execution.  The closed-loop driver sheds
    #: nothing; the field stays in the fingerprinted result shape.
    shed_ops: int = 0
    degraded: bool = False
    degrade_at_us: float = -1.0
    verify_checked: int = 0
    verify_missing: int = 0
    #: Latency summaries per phase label plus the "all" roll-up.
    latency: Dict[str, LatencySummary] = field(default_factory=dict)
    device_stats: Optional[DeviceStats] = None
    trace_spans: int = 0

    @property
    def elapsed_us(self) -> float:
        return self.finished_us - self.started_us

    def throughput_kops(self) -> float:
        """Completed device operations per millisecond of simulated time."""
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed_ops / (self.elapsed_us / 1000.0)


class _ShardCell:
    """Mutable execution state for one shard run."""

    def __init__(self, spec: ClusterSpec, program: ShardProgram) -> None:
        self.spec = spec
        self.program = program
        self.result = ShardResult(
            shard=program.shard,
            name=program.name,
            personality=program.personality,
        )
        self.recorder = LatencyRecorder(program.name)
        degrading = program.degrade_after is not None
        self.tracer: Optional[Tracer] = None
        if spec.trace:
            self.tracer = Tracer(
                TraceConfig(),
                TraceCollector(),
                pid=program.shard + 1,
                process_name=program.name,
            )
        geometry = lab_geometry(spec.blocks_per_plane)
        fault_config = FaultConfig() if degrading else None
        self.rig: Union[KVRig, BlockRig]
        if program.personality == "kv":
            kv_config = (
                KVSSDConfig(spare_block_limit=spec.degrade_spare_blocks)
                if degrading
                else None
            )
            self.rig = build_kv_rig(
                geometry,
                config=kv_config,
                tracer=self.tracer,
                fault_config=fault_config,
            )
        else:
            block_config = (
                BlockSSDConfig(spare_block_limit=spec.degrade_spare_blocks)
                if degrading
                else None
            )
            self.rig = build_block_rig(
                geometry,
                config=block_config,
                tracer=self.tracer,
                fault_config=fault_config,
            )
        self.env: Environment = self.rig.env
        self._schemes: Dict[Tuple[int, int], KeyScheme] = {}
        self._block_adapters: Dict[int, BlockAdapter] = {}

    # -- key plumbing ----------------------------------------------------

    def scheme(self, tenant: int, partition: int) -> KeyScheme:
        cached = self._schemes.get((tenant, partition))
        if cached is None:
            cached = self.spec.tenants[tenant].partition_scheme(partition)
            self._schemes[(tenant, partition)] = cached
        return cached

    def key_of(self, tenant: int, index: int) -> bytes:
        partition = index % self.spec.partitions
        return self.scheme(tenant, partition).key_for(
            index // self.spec.partitions
        )

    def block_adapter(self, tenant: int) -> BlockAdapter:
        adapter = self._block_adapters.get(tenant)
        if adapter is None:
            assert isinstance(self.rig, BlockRig)
            tenant_spec = self.spec.tenants[tenant]
            io_bytes = len(tenant_spec.tag) + 12 + tenant_spec.value_bytes
            adapter = self.rig.adapter(io_bytes)
            self._block_adapters[tenant] = adapter
        return adapter

    # -- priming ---------------------------------------------------------

    def prime(self) -> None:
        if isinstance(self.rig, KVRig):
            for directive in self.program.primes:
                tenant = self.spec.tenants[directive.tenant]
                self.rig.device.fast_fill(
                    directive.count,
                    tenant.value_bytes,
                    self.scheme(directive.tenant, directive.partition),
                )
        else:
            # Block personality: map the whole range once so every read
            # lands on a primed unit (the paper's pre-conditioned drive).
            device = self.rig.device
            device.prime_sequential_fill(device.n_units)

    # -- operation execution ---------------------------------------------

    def execute(self, planned: PlannedOp) -> Generator[Event, None, int]:
        if isinstance(self.rig, KVRig):
            op = Operation(
                planned.op,
                self.key_of(planned.tenant, planned.index),
                planned.index,
                planned.value_bytes,
            )
            return self.rig.adapter.execute(op)
        # Block personality: tenant-interleaved global slot index keeps
        # tenants from trivially aliasing each other's offsets.
        slot = planned.index * len(self.spec.tenants) + planned.tenant
        op = Operation(planned.op, b"", slot, planned.value_bytes)
        return self.block_adapter(planned.tenant).execute(op)

    def segment_driver(
        self, segment: List[PlannedOp]
    ) -> Generator[Event, None, None]:
        """Play one segment at queue depth, recording per-phase latency."""
        env = self.env
        spec = self.spec
        result = self.result
        recorder = self.recorder
        tracer = self.tracer
        stream: Iterator[PlannedOp] = iter(segment)

        def worker() -> Generator[Event, None, None]:
            for planned in stream:
                started = env.now
                if spec.router_us > 0.0:
                    yield env.timeout(spec.router_us)
                result.router_us_total += spec.router_us
                if tracer is not None and tracer.wants("host"):
                    tracer.complete(
                        "router", "route", "host", spec.router_us,
                        {"label": planned.label},
                    )
                try:
                    yield env.process(self.execute(planned))
                except DeviceError:
                    result.failed_ops += 1
                    continue
                latency = env.now - started
                recorder.record(latency, planned.label)
                result.op_time_us_total += latency
                result.completed_ops += 1

        workers = [
            env.process(worker(), name=f"{self.program.name}.w{i}")
            for i in range(spec.queue_depth)
        ]
        yield env.all_of(workers)

    # -- forced degradation ----------------------------------------------

    def degrade_driver(self) -> Generator[Event, None, None]:
        """Exhaust the spare budget until the device goes read-only.

        Runs only at a segment barrier, after a full device drain, so
        every acknowledged client write is on flash before the first
        scheduled program failure can land.
        """
        env = self.env
        device = self.rig.device
        injector = device.array.faults
        if injector is None:
            raise SimulationError(
                f"{self.program.name} planned a degradation but has no "
                "fault injector"
            )
        yield from device.drain()
        injector.schedule(
            "program_fail", count=self.spec.degrade_spare_blocks + 2
        )
        for attempt in range(_DEGRADE_ATTEMPTS):
            if device.core.read_only:
                break
            self.result.sacrificial_writes += 1
            try:
                if isinstance(self.rig, KVRig):
                    key = b"!deg" + str(attempt).zfill(12).encode("ascii")
                    yield from self.rig.api.store(key, _DEGRADE_VALUE_BYTES)
                else:
                    device_block = self.rig.device
                    yield from self.rig.api.write(
                        device_block.user_capacity_bytes
                        - device_block.map_unit,
                        device_block.map_unit,
                    )
                yield from device.drain()
            except DeviceError:
                pass
            yield env.timeout(_DEGRADE_SETTLE_US)
        if not device.core.read_only:
            raise SimulationError(
                f"{self.program.name} failed to degrade after "
                f"{_DEGRADE_ATTEMPTS} sacrificial writes"
            )
        self.result.degraded = True
        self.result.degrade_at_us = env.now

    # -- post-run verification -------------------------------------------

    def verify_driver(self) -> Generator[Event, None, None]:
        """Read back every key this shard is still obligated to hold."""
        env = self.env
        result = self.result
        partitions = self.spec.partitions

        def reads() -> Iterator[PlannedOp]:
            for entry in self.program.verify:
                for local in range(entry.count):
                    index = local * partitions + entry.partition
                    yield PlannedOp(OpType.READ, entry.tenant, index, 0, "verify")

        stream = reads()

        def worker() -> Generator[Event, None, None]:
            for planned in stream:
                result.verify_checked += 1
                try:
                    yield env.process(self.execute(planned))
                except DeviceError:
                    result.verify_missing += 1

        workers = [
            env.process(worker(), name=f"{self.program.name}.v{i}")
            for i in range(self.spec.queue_depth)
        ]
        yield env.all_of(workers)

    # -- whole-shard program ---------------------------------------------

    def driver(self) -> Generator[Event, None, None]:
        degrade_after = self.program.degrade_after
        if degrade_after == -1:
            yield from self.degrade_driver()
        for index, segment in enumerate(self.program.segments):
            if segment:
                yield from self.segment_driver(segment)
            if degrade_after == index:
                yield from self.degrade_driver()

    def run(self) -> ShardResult:
        env = self.env
        self.prime()
        result = self.result
        result.started_us = env.now
        process = env.process(self.driver(), name=f"{self.program.name}.main")
        env.run_until_complete(process)
        result.finished_us = env.now
        # Flush buffered writes to flash after the measured window so the
        # reported device telemetry (flash programs, WAF) reflects the
        # run's media traffic, not the buffer's final fill level.
        drain = env.process(
            self.rig.device.drain(), name=f"{self.program.name}.drain"
        )
        env.run_until_complete(drain, limit=env.now + 600e6)
        if self.program.personality == "kv" and self.program.verify:
            # Verification is untimed bookkeeping from the cluster's point
            # of view; it runs after the measured window closes.
            verify = env.process(
                self.verify_driver(), name=f"{self.program.name}.verify"
            )
            env.run_until_complete(verify)
        for label in self.recorder.labels():
            result.latency[label] = self.recorder.summary(label)
        if self.recorder.count():
            result.latency["all"] = self.recorder.summary()
        result.device_stats = self.rig.device.stats.snapshot()
        if self.tracer is not None:
            result.trace_spans = len(self.tracer.collector)
        return result


def run_shard(spec: ClusterSpec, shard: int) -> ShardResult:
    """Execute one shard of ``spec`` — the cluster's sweep-cell function."""
    return _ShardCell(spec, shard_plan(spec, shard)).run()
