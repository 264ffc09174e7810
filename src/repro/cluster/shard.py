"""One shard's simulation cell: the unit the process pool executes.

:func:`run_shard` is a module-level function of ``(spec, shard)`` — the
shape the sweep engine requires for pickling and content-addressed
caching.  It takes the shard's routed program (frozen, read-only) from
the spec's per-process plan, builds a fresh rig of the shard's
personality, primes its partitions, plays the program's segments at the
configured queue depth (charging the simulated router hop before every
device operation), performs the planned read-only degradation through
the real fault machinery, and finally verifies that every key the shard
is still obligated to hold is readable on the device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.blockftl.config import BlockSSDConfig
from repro.cluster.router import PlannedOp, ShardProgram, shard_plan
from repro.cluster.spec import ClusterSpec
from repro.core.experiment import (
    DIRECT_SYSTEMS,
    KVRig,
    build_rig,
    lab_geometry,
)
from repro.errors import DeviceError, SimulationError
from repro.faults.model import FaultConfig
from repro.ftl.core import DeviceStats
from repro.kvbench.runner import StoreAdapter, Window, closed_loop
from repro.kvbench.workload import Operation, OpType
from repro.kvbench.ycsb import YCSB_VALUE_BYTES
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.sim.engine import Environment, Event
from repro.trace.tracer import TraceCollector, TraceConfig, Tracer

#: Simulated routing hop (hashing, directory lookup, fabric) charged
#: before each device operation.
ROUTER_US = 3.0
#: Spare-block budget of a shard with a planned degradation (small, so
#: a handful of scheduled program-fails trips read-only).
DEGRADE_SPARE_BLOCKS = 1
#: Give up tripping read-only after this many sacrificial write rounds.
_DEGRADE_ATTEMPTS = 40
#: Settle time between sacrificial rounds (background retirement runs).
_DEGRADE_SETTLE_US = 50_000.0
#: Value size of sacrificial degrade writes.
_DEGRADE_VALUE_BYTES = 1024


@dataclass
class ShardResult(Window):
    """Everything one shard's run produced (picklable, cacheable)."""

    shard: int
    name: str
    personality: str
    started_us: float = 0.0
    finished_us: float = 0.0
    completed_ops: int = 0
    failed_ops: int = 0
    #: Simulated time spent in the routing hop, for router-vs-device
    #: attribution (total op latency minus this is device time).  Summed
    #: over the same operations as ``op_time_us_total``: every one that
    #: reached a terminal state, failed ones included.
    router_us_total: float = 0.0
    #: Sum of end-to-end op latencies (router hop included).
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
        kv = program.personality == "kv"
        config: object = None
        if degrading:
            config = (
                KVSSDConfig(spare_block_limit=DEGRADE_SPARE_BLOCKS)
                if kv
                else BlockSSDConfig(spare_block_limit=DEGRADE_SPARE_BLOCKS)
            )
        self.rig = build_rig(
            DIRECT_SYSTEMS[program.personality],
            lab_geometry(spec.blocks_per_plane),
            config=config,
            tracer=self.tracer,
            fault_config=FaultConfig() if degrading else None,
        )
        self.env: Environment = self.rig.env
        #: Per tenant: the adapter sized to that tenant's pairs.
        self._adapters: List[StoreAdapter] = [
            self.rig.adapter_for(len(tenant.tag) + 12 + YCSB_VALUE_BYTES)
            for tenant in spec.tenants
        ]
        self._schemes: Dict[Tuple[int, int], KeyScheme] = {}
        device = self.rig.device
        #: ``rig.prime`` arguments.  KV: every planned partition fill.
        #: Block: the whole range, once, so every read lands on a primed
        #: unit (the paper's pre-conditioned drive).
        self._primes: List[Tuple[int, int, Optional[KeyScheme]]] = [
            (d.count, YCSB_VALUE_BYTES, self.scheme(d.tenant, d.partition))
            for d in program.primes
        ] if kv else [(device.n_units, device.map_unit, None)]
        #: Device-side verification reads keys back; only the KV
        #: personality holds keys to find.
        self._verifies = kv

    # -- key plumbing ----------------------------------------------------

    def scheme(self, tenant: int, partition: int) -> KeyScheme:
        cached = self._schemes.get((tenant, partition))
        if cached is None:
            cached = self.spec.tenants[tenant].partition_scheme(partition)
            self._schemes[(tenant, partition)] = cached
        return cached

    # -- operation execution ---------------------------------------------

    def execute(self, planned: PlannedOp) -> Generator[Event, None, int]:
        """The device operation of ``planned``, on its tenant's adapter.

        Keyed stacks address the tenant's partition key; the block stack
        the tenant-interleaved global slot index (which keeps tenants
        from trivially aliasing each other's offsets).
        """
        partitions = self.spec.partitions
        index = planned.index
        op = Operation(
            planned.op,
            self.scheme(planned.tenant, index % partitions).key_for(
                index // partitions
            ),
            index * len(self.spec.tenants) + planned.tenant,
            planned.value_bytes,
        )
        return self._adapters[planned.tenant].execute(op)

    def route(self, planned: PlannedOp) -> Generator[Event, None, int]:
        """:meth:`execute` behind the router hop's trace span."""
        tracer = self.tracer
        if tracer is not None and tracer.wants("host"):
            tracer.complete(
                "router", "route", "host", ROUTER_US,
                {"label": planned.label},
            )
        return self.execute(planned)

    def segment_done(self, planned: PlannedOp, started: float, value: object,
                     error: Optional[DeviceError]) -> None:
        """Account one routed operation: per-phase latency on success,
        router-vs-device attribution for every terminal op."""
        result = self.result
        latency = self.env.now - started
        result.router_us_total += ROUTER_US
        result.op_time_us_total += latency
        if error is not None:
            result.failed_ops += 1
            return
        self.recorder.record(latency, planned.label)
        result.completed_ops += 1

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
            "program_fail", count=DEGRADE_SPARE_BLOCKS + 2
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
            yield env.sleep(_DEGRADE_SETTLE_US)
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
        result = self.result
        partitions = self.spec.partitions

        reads = (
            PlannedOp(OpType.READ, entry.tenant,
                      local * partitions + entry.partition, 0, "verify")
            for entry in self.program.verify
            for local in range(entry.count)
        )

        def done(planned: PlannedOp, started: float, value: object,
                 error: Optional[DeviceError]) -> None:
            result.verify_checked += 1
            if error is not None:
                result.verify_missing += 1

        yield closed_loop(
            self.env, f"{self.program.name}.verify", self.spec.queue_depth,
            self.execute, reads, done,
        )

    # -- whole-shard program ---------------------------------------------

    def driver(self) -> Generator[Event, None, None]:
        degrade_after = self.program.degrade_after
        if degrade_after == -1:
            yield from self.degrade_driver()
        for index, segment in enumerate(self.program.segments):
            if segment:
                # One segment at queue depth, the router hop charged
                # inside every operation's latency window.
                yield closed_loop(
                    self.env, self.program.name, self.spec.queue_depth,
                    self.route, segment, self.segment_done,
                    hop_us=ROUTER_US,
                )
            if degrade_after == index:
                yield from self.degrade_driver()

    def run(self) -> ShardResult:
        env = self.env
        for prime in self._primes:
            self.rig.prime(*prime)
        result = self.result
        result.started_us = env.now
        process = env.process(self.driver(), name=f"{self.program.name}.main")
        env.run_until_complete(process)
        result.finished_us = env.now
        # Flush buffered writes to flash after the measured window so the
        # reported device telemetry (flash programs, WAF) reflects the
        # run's media traffic, not the buffer's final fill level.
        self.rig.drain()
        if self._verifies and self.program.verify:
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
