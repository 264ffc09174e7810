"""The event-loop serving frontend: admit, batch, schedule, dispatch.

Requests arrive open-loop (``frontend.arrivals``), pass an admission
check against a bounded queue, wait in per-SLO-class FIFO queues, get
coalesced into batches, and dispatch onto the device at a bounded
concurrency.  Every request carries its full timestamp trail —

    arrival -> admit -> batch -> submit -> device -> complete

— so queueing delay is attributed exactly: everything before ``submit``
is frontend queueing, everything after is device service.  When offered
load exceeds device capacity the pre-submit phases absorb the excess,
which is the saturation knee the load sweep measures.

A ``Request`` object lives only while its request is in flight: the
schedule is streamed, each request built as the accept loop reaches it,
and a terminal request leaves one row in the run's :class:`Trail`, a set
of ``array`` columns in completion order.

Determinism: the arrival schedule is streamed from generators that seed
their own RNGs, so it is data, not events; the event loop runs on the
simulation engine's total event order, and dispatchers break ties by
class index — the same spec always produces byte-identical results.
"""

from __future__ import annotations

import heapq
from array import array
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Deque,
    Dict,
    Generator,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

from repro.core.experiment import build_rig, lab_geometry
from repro.errors import DeviceError
from repro.frontend.arrivals import generate_arrivals
from repro.frontend.spec import FrontendSpec, TenantLoad
from repro.kvbench.runner import StoreAdapter, Throughput, run_phase, serve_ops
from repro.kvbench.workload import (
    Operation,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvftl.population import KeyScheme
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.nvme.command import NvmeStatus, status_for_error
from repro.sim.engine import Environment, Event
from repro.sim.signal import Signal
from repro.trace.tracer import Tracer

#: Queueing-attribution phases, in timestamp-trail order.
PHASES = ("admit", "queue", "dispatch", "device")

#: Largest batch one dispatch takes from a class queue.
BATCH_MAX = 8
#: How long a dispatcher lingers for a short queue to fill out.
BATCH_LINGER_US = 20.0
#: Concurrent batch dispatchers (device-side concurrency is at most
#: ``DISPATCH_WIDTH * BATCH_MAX`` operations in flight).
DISPATCH_WIDTH = 8
#: Event-loop CPU charged per admission decision; serializes the arrival
#: path the way a real single-threaded accept loop does.
ADMIT_CPU_US = 0.3
#: Fixed per-batch dispatch cost (wakeup + doorbell write) — the
#: overhead batching amortizes.
BATCH_OVERHEAD_US = 4.0


class Request:
    """One open-loop request in flight and its timestamp trail (all
    times us); once terminal it is a row of the run's :class:`Trail`."""

    __slots__ = (
        "seq", "tenant_index", "tenant", "slo", "op", "deadline_us",
        "arrival_us", "admit_us", "batch_us", "submit_us", "complete_us",
        "batch_seq", "shed", "status",
    )

    def __init__(
        self,
        seq: int,
        tenant_index: int,
        tenant: str,
        slo: str,
        op: Operation,
        arrival_us: float,
        deadline_us: float,
    ) -> None:
        self.seq = seq
        self.tenant_index = tenant_index
        self.tenant = tenant
        self.slo = slo
        self.op = op
        self.arrival_us = arrival_us
        self.deadline_us = deadline_us
        self.admit_us = -1.0
        self.batch_us = -1.0
        self.submit_us = -1.0
        self.complete_us = -1.0
        self.batch_seq = -1
        self.shed = False
        self.status = NvmeStatus.SUCCESS


class TrailRow(NamedTuple):
    """One terminal request, read back from a :class:`Trail`."""

    seq: int
    tenant: str
    slo: str
    deadline_us: float
    arrival_us: float
    admit_us: float
    batch_us: float
    submit_us: float
    complete_us: float
    batch_seq: int
    shed: bool
    status: NvmeStatus

    @property
    def latency_us(self) -> float:
        """End-to-end latency as the client sees it."""
        return self.complete_us - self.arrival_us

    @property
    def queue_wait_us(self) -> float:
        """Time spent in the frontend before device submission."""
        return self.submit_us - self.arrival_us

    @property
    def violated_slo(self) -> bool:
        """Whether the request completed past its class deadline."""
        return self.latency_us > self.deadline_us


def _tenant_classes(spec: FrontendSpec) -> Tuple[Tuple[str, str, float], ...]:
    """``(tenant name, class name, class deadline)`` by tenant index."""
    return tuple(
        (tenant.name, tenant.slo,
         spec.classes[spec.class_index(tenant.slo)].deadline_us)
        for tenant in spec.tenants
    )


class Trail(Sequence[TrailRow]):
    """Every terminal request of one run, in completion order (a shed
    request terminates at its arrival), as one ``array`` column a field.

    Indexing builds a :class:`TrailRow`; the columns hold the stamps
    exactly, so rows read back the floats the run wrote.
    """

    def __init__(self, spec: FrontendSpec) -> None:
        self.tenants = _tenant_classes(spec)
        self.seq = array("q")
        self.tenant_index = array("I")
        self.arrival_us = array("d")
        self.admit_us = array("d")
        self.batch_us = array("d")
        self.submit_us = array("d")
        self.complete_us = array("d")
        self.batch_seq = array("q")
        self.shed = array("b")
        self.status = array("H")

    def append(self, request: Request) -> None:
        """Store the row of ``request``, which has turned terminal."""
        self.seq.append(request.seq)
        self.tenant_index.append(request.tenant_index)
        self.arrival_us.append(request.arrival_us)
        self.admit_us.append(request.admit_us)
        self.batch_us.append(request.batch_us)
        self.submit_us.append(request.submit_us)
        self.complete_us.append(request.complete_us)
        self.batch_seq.append(request.batch_seq)
        self.shed.append(request.shed)
        self.status.append(request.status)

    def __len__(self) -> int:
        return len(self.seq)

    @overload
    def __getitem__(self, index: int) -> TrailRow: ...

    @overload
    def __getitem__(self, index: slice) -> List[TrailRow]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TrailRow, List[TrailRow]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        tenant, slo, deadline_us = self.tenants[self.tenant_index[index]]
        return TrailRow(
            self.seq[index], tenant, slo, deadline_us,
            self.arrival_us[index], self.admit_us[index],
            self.batch_us[index], self.submit_us[index],
            self.complete_us[index], self.batch_seq[index],
            bool(self.shed[index]), NvmeStatus(self.status[index]),
        )


def _tenant_scheme(tenant: TenantLoad) -> KeyScheme:
    """Disjoint per-tenant key range: name-prefixed, 16-byte keys."""
    return KeyScheme(prefix=tenant.name.encode("ascii") + b"-",
                     digits=tenant.key_digits)


def _tenant_operations(tenant: TenantLoad) -> WorkloadSpec:
    """The kvbench workload spec backing one tenant's request stream.

    The same key scheme primes the population before the open-loop
    phase, so reads and updates always address existing pairs.
    """
    return WorkloadSpec(
        n_ops=tenant.arrivals.n_requests,
        op=tenant.op,
        pattern=Pattern.UNIFORM,
        population=tenant.population,
        key_scheme=_tenant_scheme(tenant),
        value_bytes=tenant.value_bytes,
        read_fraction=tenant.read_fraction,
        seed=tenant.seed,
    )


def build_schedule(spec: FrontendSpec, origin: float = 0.0) -> Iterator[Request]:
    """Merge every tenant's arrival stream into one request schedule,
    streamed: each request is built as it is consumed, its arrival
    re-origined to ``origin``.

    The merge is keyed ``(arrival_us, tenant_index, per-tenant seq)`` so
    simultaneous arrivals order deterministically; per-tenant request
    order always equals per-tenant arrival order.
    """
    def stream(
        tenant_index: int, tenant: TenantLoad
    ) -> Iterator[Tuple[float, int, int, Operation]]:
        ops = generate_operations(_tenant_operations(tenant))
        times = generate_arrivals(tenant.arrivals)
        for seq, (arrival, op) in enumerate(zip(times, ops)):
            yield (arrival, tenant_index, seq, op)

    tenants = _tenant_classes(spec)
    streams = [
        stream(tenant_index, tenant)
        for tenant_index, tenant in enumerate(spec.tenants)
    ]
    merged = heapq.merge(*streams)
    for global_seq, (arrival, tenant_index, _, op) in enumerate(merged):
        name, slo, deadline = tenants[tenant_index]
        yield Request(global_seq, tenant_index, name, slo, op,
                      arrival + origin, deadline)


class ServingFrontend:
    """Admission control, per-class queues, batching, and dispatch.

    ``adapter`` is any kvbench store adapter (``execute(op)`` generator);
    the frontend never bypasses it, so the device path is exactly the one
    the closed-loop figures exercise.
    """

    def __init__(
        self,
        env: Environment,
        adapter: StoreAdapter,
        spec: FrontendSpec,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.env = env
        self.adapter = adapter
        self.spec = spec
        self.tracer = tracer if tracer is not None else Tracer.disabled()
        self._queues: Tuple[Deque[Request], ...] = tuple(
            deque() for _ in spec.classes
        )
        self._signal = Signal(env, "frontend")
        self._pending = 0
        self._arrivals_done = False
        self._batch_seq = 0
        self.trail = Trail(spec)
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.completed = 0
        self.failed = 0
        self.batches = 0
        self.batched_requests = 0

    # -- arrival + admission --------------------------------------------

    def arrival_process(
        self, schedule: Iterable[Request]
    ) -> Generator[Event, None, None]:
        """Open-loop arrivals: admit or shed each request at its time."""
        spec = self.spec
        for request in schedule:
            delay = request.arrival_us - self.env.now
            if delay > 0:
                yield self.env.sleep(delay)
            # The accept loop is single-threaded; admission work
            # serializes here, so arrival bursts back up visibly in the
            # admit phase.
            yield self.env.sleep(ADMIT_CPU_US)
            self.offered += 1
            if self._pending >= spec.admit_capacity:
                request.shed = True
                request.status = NvmeStatus.COMMAND_INTERRUPTED
                request.complete_us = self.env.now
                self.shed += 1
                self.trail.append(request)
                if self.tracer.wants("host"):
                    self.tracer.instant(
                        "frontend", "shed", "host",
                        {"tenant": request.tenant, "slo": request.slo},
                    )
                continue
            request.admit_us = self.env.now
            self._pending += 1
            self.admitted += 1
            self._queues[spec.class_index(request.slo)].append(request)
            self._signal.notify_all()
        self._arrivals_done = True
        self._signal.notify_all()

    # -- scheduling ------------------------------------------------------

    def _pick_class(self) -> int:
        """Index of the class to dispatch next; -1 when all queues empty.

        EDF: the non-empty class whose head request's absolute deadline
        (arrival + class deadline) is earliest.  An aged head's deadline
        recedes into the past, so no backlogged class waits forever —
        starvation-freedom is structural, not a tuned escape valve.
        """
        best = -1
        best_key = 0.0
        for index, queue in enumerate(self._queues):
            if not queue:
                continue
            head = queue[0]
            key = head.arrival_us + head.deadline_us
            if best < 0 or key < best_key:
                best = index
                best_key = key
        return best

    def dispatcher(self) -> Generator[Event, None, None]:
        """One dispatch worker: form a batch, pay overhead, run it."""
        while True:
            picked = self._pick_class()
            if picked < 0:
                if self._arrivals_done and self._pending == 0:
                    return
                yield self._signal.park()
                continue
            queue = self._queues[picked]
            if len(queue) < BATCH_MAX and not self._arrivals_done:
                # Linger once for coalescing, then re-pick: arrivals
                # during the linger may have changed the EDF order.
                yield self.env.sleep(BATCH_LINGER_US)
                picked = self._pick_class()
                if picked < 0:
                    continue
                queue = self._queues[picked]
            batch: List[Request] = []
            now = self.env.now
            while queue and len(batch) < BATCH_MAX:
                request = queue.popleft()
                request.batch_us = now
                request.batch_seq = self._batch_seq
                self._batch_seq += 1
                batch.append(request)
            self.batches += 1
            self.batched_requests += len(batch)
            # One event-loop wakeup and doorbell write per batch — the
            # fixed cost coalescing amortizes.
            yield self.env.sleep(BATCH_OVERHEAD_US)
            if self.tracer.wants("host"):
                self.tracer.complete(
                    "frontend", "batch", "host",
                    self.env.now - now,
                    {"size": len(batch), "slo": batch[0].slo},
                )
            ops = [
                self.env.process(
                    serve_ops(
                        self.env, self.adapter.execute, (request.op,),
                        partial(self._complete, request),
                    ),
                    name=f"fe.{request.slo}.{request.seq}",
                )
                for request in batch
            ]
            yield self.env.all_of(ops)

    # -- device execution ------------------------------------------------

    def _complete(
        self,
        request: Request,
        op: Operation,
        submit_us: float,
        value: object,
        error: Optional[DeviceError],
    ) -> None:
        """Terminal bookkeeping of one dispatched request (the shared
        per-op envelope's outcome hook)."""
        request.submit_us = submit_us
        if error is not None:
            request.status = status_for_error(error)
            self.failed += 1
        else:
            request.status = NvmeStatus.SUCCESS
            self.completed += 1
        request.complete_us = self.env.now
        if self.tracer.wants("host"):
            self.tracer.complete(
                "frontend", "serve", "host",
                request.complete_us - request.arrival_us,
                {"tenant": request.tenant, "slo": request.slo,
                 "queue_us": round(request.submit_us - request.arrival_us, 3)},
            )
        self.trail.append(request)
        self._pending -= 1
        if self._pending == 0:
            # Wake parked dispatchers so they can observe completion.
            self._signal.notify_all()

    # -- run -------------------------------------------------------------

    def serve(self, schedule: Iterable[Request]) -> Generator[Event, None, None]:
        """Run arrivals and dispatchers to completion."""
        workers = [
            self.env.process(self.dispatcher(), name=f"fe.dispatch.{i}")
            for i in range(DISPATCH_WIDTH)
        ]
        arrivals = self.env.process(self.arrival_process(schedule), name="fe.arrivals")
        yield self.env.all_of([arrivals, *workers])


@dataclass
class ClassStats:
    """Per-SLO-class outcome of one open-loop run (plain picklable data)."""

    name: str
    deadline_us: float
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    completed: int = 0
    failed: int = 0
    slo_violations: int = 0
    #: End-to-end latency summary over every terminal request that was
    #: dispatched (completed and failed; shed requests never queue).
    latency: Optional[LatencySummary] = None
    #: Pre-submit queueing-delay summary, same population.
    queueing: Optional[LatencySummary] = None
    #: Mean microseconds per attribution phase, same population.
    phase_means: Dict[str, float] = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def violation_fraction(self) -> float:
        terminal = self.completed + self.failed
        return self.slo_violations / terminal if terminal else 0.0


@dataclass
class FrontendRunResult(Throughput):
    """Everything one :func:`run_frontend` call produced."""

    offered_ops_s: float
    elapsed_us: float
    offered: int
    admitted: int
    shed: int
    completed: int
    failed: int
    batches: int
    batched_requests: int
    per_class: Dict[str, ClassStats] = field(default_factory=dict)
    #: The run's :class:`Trail`, only when ``keep_requests=True``: a
    #: sequence of :class:`TrailRow` in completion order, read from
    #: columns (about 68 B a request, not an object per request).
    requests: Optional[Trail] = None

    @property
    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    @property
    def completed_ops(self) -> int:
        return self.completed


def _summarize(spec: FrontendSpec, trail: Trail) -> Dict[str, ClassStats]:
    per_class: Dict[str, ClassStats] = {
        cls.name: ClassStats(name=cls.name, deadline_us=cls.deadline_us)
        for cls in spec.classes
    }
    latency: Dict[str, LatencyRecorder] = {
        cls.name: LatencyRecorder(f"fe.{cls.name}") for cls in spec.classes
    }
    queueing: Dict[str, LatencyRecorder] = {
        cls.name: LatencyRecorder(f"fe.{cls.name}.queue")
        for cls in spec.classes
    }
    phase_sums: Dict[str, Dict[str, float]] = {
        cls.name: {phase: 0.0 for phase in PHASES} for cls in spec.classes
    }
    # Everything a row is accounted to, by tenant index.
    by_tenant = [
        (per_class[slo], latency[slo], queueing[slo], phase_sums[slo], deadline)
        for _, slo, deadline in trail.tenants
    ]
    success = NvmeStatus.SUCCESS
    columns = zip(
        trail.tenant_index, trail.shed, trail.status, trail.arrival_us,
        trail.admit_us, trail.batch_us, trail.submit_us, trail.complete_us,
    )
    for tenant, shed, status, arrival, admit, batch, submit, complete in columns:
        stats, lat, queue, sums, deadline = by_tenant[tenant]
        stats.offered += 1
        if shed:
            stats.shed += 1
            continue
        stats.admitted += 1
        if status == success:
            stats.completed += 1
        else:
            stats.failed += 1
        latency_us = complete - arrival
        if latency_us > deadline:
            stats.slo_violations += 1
        lat.record(latency_us)
        queue.record(submit - arrival)
        sums["admit"] += admit - arrival
        sums["queue"] += batch - admit
        sums["dispatch"] += submit - batch
        sums["device"] += complete - submit
    for name, stats in per_class.items():
        terminal = stats.completed + stats.failed
        if terminal:
            stats.latency = latency[name].summary()
            stats.queueing = queueing[name].summary()
            stats.phase_means = {
                phase: phase_sums[name][phase] / terminal for phase in PHASES
            }
    return per_class


def run_frontend(
    spec: FrontendSpec,
    keep_requests: bool = False,
    tracer: Optional[Tracer] = None,
) -> FrontendRunResult:
    """Build a KV rig, prime tenant populations, and serve the open-loop run.

    Priming inserts every tenant's key population closed-loop before the
    measured phase, so open-loop reads and updates always hit existing
    pairs; the measured phase starts at a fresh time origin.
    """
    with build_rig(
        "kvssd", lab_geometry(spec.blocks_per_plane), tracer=tracer
    ) as rig:
        env: Environment = rig.env
        adapter: StoreAdapter = rig.adapter_for(
            max(tenant.value_bytes for tenant in spec.tenants)
        )
        for tenant in spec.tenants:
            # The tenant's own stream spec, turned into one sequential
            # insert per key: same scheme, same value size, by construction.
            prime = replace(
                _tenant_operations(tenant),
                n_ops=tenant.population,
                op="insert",
                pattern=Pattern.SEQUENTIAL,
            )
            run_phase(
                rig, f"fe.prime.{tenant.name}", prime, 16, adapter, drain=False
            )

        # Arrivals are re-origined at the post-priming clock.
        origin = env.now
        frontend = ServingFrontend(env, adapter, spec, tracer=tracer)
        serve = env.process(
            frontend.serve(build_schedule(spec, origin)), name="fe.serve"
        )
        env.run_until_complete(serve)
        elapsed_us = env.now - origin

    result = FrontendRunResult(
        offered_ops_s=spec.offered_ops_s,
        elapsed_us=elapsed_us,
        offered=frontend.offered,
        admitted=frontend.admitted,
        shed=frontend.shed,
        completed=frontend.completed,
        failed=frontend.failed,
        batches=frontend.batches,
        batched_requests=frontend.batched_requests,
        per_class=_summarize(spec, frontend.trail),
    )
    if keep_requests:
        result.requests = frontend.trail
    return result
