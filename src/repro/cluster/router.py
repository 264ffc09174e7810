"""Deterministic routing: from a :class:`ClusterSpec` to shard programs.

:func:`build_plan` is a *pure function* of the spec.  It merges the
tenants' YCSB streams with a seeded interleave, routes every operation
through the consistent-hash ring (write-all to the R holders of the
key's partition, read-one from the first holder), enforces tenant
quotas, and — at each planned :class:`~repro.cluster.spec.DegradeEvent`
— removes the shard from the ring, restores the replication factor by
scheduling drain traffic (reads on the retiring read-only device,
re-inserts on the newly added holders), and re-maps reads away from it.

The output is one :class:`ShardProgram` per shard: priming directives
plus an ordered list of operation segments, with barriers exactly at
degrade boundaries so no acknowledged client write can race the forced
media failures.  Cells stay pure functions of ``(spec, shard)``: each
looks its program up through :func:`shard_plan`, nothing routed ever
crosses a process boundary, and cluster cells stay cacheable by the same
content hash as any other sweep cell.

A cluster run plans once.  :func:`build_plan` is memoised per process on
the frozen, value-hashed spec, and ``run_cluster`` plans before it fans
out: inline cells and a later warm pass hit the entry, pool workers
forked afterwards inherit it, and a spawned worker plans once per spec
rather than once per shard — N+1 whole-cluster routings of an N-shard
run become one.  What the memo hands out is shared by every later cell
of the process, so it is immutable by construction: ``_Router`` builds
lists, ``build_plan`` freezes them into tuples and read-only mappings,
and a cell that tries to write to its program fails at the write.

Cross-shard semantics deserve one caveat: each shard is an *independent*
simulation (that is what makes the fan-out embarrassingly parallel), so
the plan expresses ordering as stream positions and segment barriers,
not as a global clock.  Replicated writes are acknowledged when every
holder has executed its copy — in plan terms, when the segment that
contains them completes on every holder — and the zero-lost-writes
guarantee is checked against exactly that definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.cluster.ring import HashRing
from repro.cluster.spec import ClusterSpec, TenantSpec, shard_name
from repro.errors import ConfigurationError
from repro.kvbench.generators import ChurnSpec, generate_churn
from repro.kvbench.traces import TraceWorkload
from repro.kvbench.workload import Operation, OpType
from repro.kvbench.ycsb import YCSB_VALUE_BYTES, YCSBSpec, generate_ycsb

#: Phase labels a planned operation may carry (latency buckets).
PHASES = ("pre", "rebalance", "post", "drain")

#: Plans a process keeps, least recently used evicted first.  A run needs
#: one (plan, then its cells); the slack serves a caller going back and
#: forth between specs, the bound stops a sweep over many specs from
#: retaining every routed stream it ever built.
_PLANS_KEPT = 3


@dataclass(frozen=True)
class PlannedOp:
    """One device operation bound for one shard."""

    op: OpType
    #: Index into ``spec.tenants``.
    tenant: int
    #: Tenant-global key index (partition = ``index % partitions``).
    index: int
    value_bytes: int
    #: Phase label — the latency bucket this op records under.
    label: str


@dataclass(frozen=True)
class PrimeDirective:
    """Prefill one partition's pairs on a shard before the run."""

    tenant: int
    partition: int
    count: int


@dataclass(frozen=True)
class VerifyRange:
    """Keys a shard must still serve after the run: locals ``[0, count)``."""

    tenant: int
    partition: int
    count: int


@dataclass(frozen=True)
class ShardProgram:
    """Everything one shard executes, in order."""

    shard: int
    name: str
    personality: str
    primes: Tuple[PrimeDirective, ...]
    #: Operation segments; a barrier (queue fully drained) sits between
    #: consecutive segments.
    segments: Tuple[Tuple[PlannedOp, ...], ...]
    #: Trip the device read-only after segment index k (-1 = before the
    #: first segment; ``None`` = this shard never degrades).
    degrade_after: Optional[int]
    #: Post-run existence checks (KV personalities, ``spec.verify``).
    verify: Tuple[VerifyRange, ...]

    @property
    def total_ops(self) -> int:
        return sum(len(segment) for segment in self.segments)


@dataclass(frozen=True)
class ClusterPlan:
    """The fully routed cluster run (shared through the memo: read-only)."""

    spec: ClusterSpec
    programs: Tuple[ShardProgram, ...]
    #: Client operations in the merged stream (scans/RMWs count once).
    client_ops: int
    #: Device operations routed to shards (replication fan-out included,
    #: drain excluded).
    routed_ops: int
    #: Drain operations scheduled by degradations.
    drain_ops: int
    #: Inserts rejected at the router by tenant quota, per tenant name.
    rejected_inserts: Mapping[str, int]
    #: Reads/updates of keys the router knows don't exist (never
    #: accepted), answered at the router, per tenant name.
    router_not_found: Mapping[str, int]
    #: partition token -> ordered holder names, before any degradation.
    initial_directory: Mapping[str, Tuple[str, ...]]
    #: partition token -> ordered holder names, after all degradations.
    final_directory: Mapping[str, Tuple[str, ...]]


def partition_count(total: int, partitions: int, partition: int) -> int:
    """Pairs of a dense ``total``-key namespace living in ``partition``.

    Global index ``i`` lives in partition ``i % partitions`` at local
    index ``i // partitions`` — dense per partition, forever, even as
    inserts extend the namespace.
    """
    return (total + partitions - 1 - partition) // partitions


def interleave(primary: List[PlannedOp], extra: List[PlannedOp]) -> List[PlannedOp]:
    """Merge ``extra`` evenly through ``primary``, preserving both orders.

    Used to spread drain traffic across a rebalance window's client
    operations so the two contend realistically instead of serializing.
    """
    if not extra:
        return primary
    if not primary:
        return extra
    merged: List[PlannedOp] = []
    pi = ei = 0
    while pi < len(primary) or ei < len(extra):
        take_extra = ei < len(extra) and (
            pi >= len(primary) or ei * len(primary) <= pi * len(extra)
        )
        if take_extra:
            merged.append(extra[ei])
            ei += 1
        else:
            merged.append(primary[pi])
            pi += 1
    return merged


class _Router:
    """Mutable routing state threaded through one plan construction."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        names = [shard_name(s) for s in range(spec.shards)]
        self.ring = HashRing(names, vnodes=spec.vnodes)
        #: Per shard name, in shard order: the lists ``build_plan``
        #: freezes into that shard's :class:`ShardProgram`.
        self.primes: Dict[str, List[PrimeDirective]] = {n: [] for n in names}
        self.segments: Dict[str, List[List[PlannedOp]]] = {
            n: [[]] for n in names
        }
        self.verify: Dict[str, List[VerifyRange]] = {n: [] for n in names}
        self.degrade_after: Dict[str, int] = {}
        #: Accepted pairs per tenant (prefill + accepted inserts).
        self.accepted = [tenant.population for tenant in spec.tenants]
        #: token -> ordered holder names.
        self.directory: Dict[str, List[str]] = {}
        for t, tenant in enumerate(spec.tenants):
            for partition in range(spec.partitions):
                token = tenant.partition_token(partition)
                self.directory[token] = self.ring.preference(
                    token, spec.replication
                )
        self.initial_directory = {
            token: tuple(holders) for token, holders in self.directory.items()
        }
        #: Drain ops awaiting their window's interleave, per shard name.
        self.drain_buffer: Dict[str, List[PlannedOp]] = {}
        #: token -> (read here instead of holders[0], until client pos,
        #: only for local indices below this drain count).
        self.read_fallback: Dict[str, Tuple[str, int, int]] = {}
        #: Client position where the last rebalance window closes.
        self.window_until = -1
        self.saw_degrade = False
        self.routed_ops = 0
        self.drain_ops = 0
        self.rejected = {tenant.name: 0 for tenant in spec.tenants}
        self.not_found = {tenant.name: 0 for tenant in spec.tenants}

    # -- segment plumbing ------------------------------------------------

    def cut_segments(self) -> None:
        """Barrier: close the current segment on every shard.

        Windows close first — any buffered drain traffic is interleaved
        into the segment it belongs to before the cut.
        """
        self.flush_drain_buffers()
        for segments in self.segments.values():
            if segments[-1]:
                segments.append([])

    def flush_drain_buffers(self) -> None:
        for name, drains in self.drain_buffer.items():
            segments = self.segments[name]
            segments[-1] = interleave(segments[-1], drains)
        self.drain_buffer.clear()

    def emit(self, name: str, planned: PlannedOp) -> None:
        self.segments[name][-1].append(planned)
        self.routed_ops += 1

    # -- client operations -----------------------------------------------

    def label(self, pos: int) -> str:
        if pos < self.window_until:
            return "rebalance"
        if self.saw_degrade:
            return "post"
        return "pre"

    def route_write(
        self, t: int, op: OpType, index: int, value_bytes: int, label: str
    ) -> None:
        tenant = self.spec.tenants[t]
        token = tenant.partition_token(index % self.spec.partitions)
        for holder in self.directory[token]:
            self.emit(holder, PlannedOp(op, t, index, value_bytes, label))

    def route_read(self, t: int, index: int, label: str, pos: int) -> bool:
        """Route one point read; False when answered at the router."""
        tenant = self.spec.tenants[t]
        if index >= self.accepted[t]:
            self.not_found[tenant.name] += 1
            return False
        token = tenant.partition_token(index % self.spec.partitions)
        fallback = self.read_fallback.get(token)
        local = index // self.spec.partitions
        if fallback is not None and pos < fallback[1] and local < fallback[2]:
            # Keys the retiring sole holder acknowledged stay readable
            # there until its drain window closes; newer inserts already
            # live on the replacement holder.
            reader = fallback[0]
        else:
            reader = self.directory[token][0]
        self.emit(reader, PlannedOp(OpType.READ, t, index, 0, label))
        return True

    def route_client(self, t: int, op: Operation, pos: int) -> None:
        tenant = self.spec.tenants[t]
        label = self.label(pos)
        if op.scan_length > 0:
            # No cluster-wide ordered iteration: a scan expands into its
            # run of point reads, each routed by its own partition.
            for step in range(op.scan_length):
                if not self.route_read(t, op.key_index + step, label, pos):
                    break
            return
        if op.rmw:
            if op.key_index >= self.accepted[t]:
                self.not_found[tenant.name] += 1
                return
            self.route_read(t, op.key_index, label, pos)
            self.route_write(
                t, OpType.UPDATE, op.key_index, op.value_bytes, label
            )
            return
        kind = op.op
        if kind is OpType.READ:
            self.route_read(t, op.key_index, label, pos)
            return
        if kind is OpType.INSERT:
            if tenant.quota_pairs and self.accepted[t] >= tenant.quota_pairs:
                self.rejected[tenant.name] += 1
                return
            # The generator allocates indices densely and quotas never
            # release, so an accepted insert is always the next index.
            self.accepted[t] += 1
            self.route_write(t, kind, op.key_index, op.value_bytes, label)
            return
        if kind is OpType.UPDATE:
            if op.key_index >= self.accepted[t]:
                self.not_found[tenant.name] += 1
                return
            self.route_write(t, kind, op.key_index, op.value_bytes, label)
            return
        raise ConfigurationError(f"unroutable operation kind {kind!r}")

    # -- degradation and drain -------------------------------------------

    def degrade(self, shard: int, pos: int) -> None:
        """Retire ``shard``: barrier, ring removal, drain scheduling."""
        name = shard_name(shard)
        self.cut_segments()
        self.degrade_after[name] = len(self.segments[name]) - 2
        self.ring.remove(name)
        self.saw_degrade = True
        window_end = pos + self.spec.rebalance_window_ops
        self.window_until = max(self.window_until, window_end)
        # With fewer survivors than R the cluster under-replicates rather
        # than refusing — the write-all set is capped at the membership.
        want = min(self.spec.replication, len(self.ring))
        for t, tenant in enumerate(self.spec.tenants):
            for partition in range(self.spec.partitions):
                token = tenant.partition_token(partition)
                holders = self.directory[token]
                if name not in holders:
                    continue
                survivors = [h for h in holders if h != name]
                preferred = self.ring.preference(token, want)
                additions = [n for n in preferred if n not in survivors]
                additions = additions[: want - len(survivors)]
                self.directory[token] = survivors + additions
                count = partition_count(
                    self.accepted[t], self.spec.partitions, partition
                )
                # The retiring device's obligation freezes here; it must
                # still serve everything it acknowledged.
                self.verify[name].append(VerifyRange(t, partition, count))
                if not survivors:
                    # R=1: the retiring replica keeps serving reads until
                    # the drain window closes and the new holder is whole.
                    self.read_fallback[token] = (name, window_end, count)
                for local in range(count):
                    index = local * self.spec.partitions + partition
                    self.drain_buffer.setdefault(name, []).append(
                        PlannedOp(OpType.READ, t, index, 0, "drain")
                    )
                    self.drain_ops += 1
                    for addition in additions:
                        self.drain_buffer.setdefault(addition, []).append(
                            PlannedOp(
                                OpType.INSERT,
                                t,
                                index,
                                YCSB_VALUE_BYTES,
                                "drain",
                            )
                        )
                        self.drain_ops += 1


def _churn_stream(tenant: TenantSpec) -> Iterator[Operation]:
    """The churn stream, over a static window, replayed as tenant
    operations.

    The churn generator emits trace records; the router only consumes
    (op kind, key index, value bytes) — keys are re-derived per
    partition — so the records replay through a
    :class:`~repro.kvbench.traces.TraceWorkload` keyed by the churn
    spec's own scheme to recover exact indices.
    """
    churn = ChurnSpec(
        n_ops=tenant.n_ops,
        population=tenant.population,
        working_set=tenant.churn_window,
        value_bytes=YCSB_VALUE_BYTES,
        seed=tenant.seed,
    )
    return TraceWorkload(
        tuple(generate_churn(churn)), key_scheme=churn.key_scheme
    ).operations()


def _tenant_stream(tenant: TenantSpec) -> Iterator[Operation]:
    """The tenant's operation stream (keys are re-derived from indices)."""
    if tenant.workload == "churn":
        return _churn_stream(tenant)
    ycsb = YCSBSpec(
        workload=tenant.workload,
        n_ops=tenant.n_ops,
        population=tenant.population,
        scan_length=10,
        seed=tenant.seed,
    )
    return generate_ycsb(ycsb)


@lru_cache(maxsize=_PLANS_KEPT)
def build_plan(spec: ClusterSpec) -> ClusterPlan:
    """Route the whole cluster run; pure and deterministic in ``spec``.

    Memoised per process on the spec's value, so equal specs share one
    frozen plan (module docstring).
    """
    router = _Router(spec)

    # Priming: every initial holder of a partition prefills its pairs.
    for t, tenant in enumerate(spec.tenants):
        for partition in range(spec.partitions):
            count = partition_count(tenant.population, spec.partitions, partition)
            if count == 0:
                continue
            token = tenant.partition_token(partition)
            for holder in router.initial_directory[token]:
                router.primes[holder].append(
                    PrimeDirective(t, partition, count)
                )

    streams = [_tenant_stream(tenant) for tenant in spec.tenants]
    remaining = [tenant.n_ops for tenant in spec.tenants]
    pending = list(spec.degrade)
    rng = random.Random(spec.seed)
    total = spec.total_client_ops

    window_open = False
    for pos in range(total):
        while pending and pending[0].at_op == pos:
            router.degrade(pending.pop(0).shard, pos)
            window_open = True
        if window_open and pos >= router.window_until:
            # Rebalance window over: interleave its drain traffic and put
            # a barrier behind it so "post" latencies are clean.
            router.cut_segments()
            window_open = False
        t = rng.choices(range(len(streams)), weights=remaining)[0]
        remaining[t] -= 1
        router.route_client(t, next(streams[t]), pos)
    router.flush_drain_buffers()

    # Post-run obligations of the shards still holding each partition.
    if spec.verify:
        for t, tenant in enumerate(spec.tenants):
            for partition in range(spec.partitions):
                token = tenant.partition_token(partition)
                count = partition_count(
                    router.accepted[t], spec.partitions, partition
                )
                if count == 0:
                    continue
                for holder in router.directory[token]:
                    router.verify[holder].append(
                        VerifyRange(t, partition, count)
                    )

    return ClusterPlan(
        spec=spec,
        programs=tuple(
            ShardProgram(
                shard=s,
                name=name,
                personality=spec.personality_of(s),
                primes=tuple(router.primes[name]),
                segments=tuple(map(tuple, router.segments[name])),
                degrade_after=router.degrade_after.get(name),
                verify=tuple(router.verify[name]),
            )
            for s, name in enumerate(router.segments)
        ),
        client_ops=total,
        routed_ops=router.routed_ops,
        drain_ops=router.drain_ops,
        rejected_inserts=MappingProxyType(router.rejected),
        router_not_found=MappingProxyType(router.not_found),
        initial_directory=MappingProxyType(router.initial_directory),
        final_directory=MappingProxyType({
            token: tuple(holders)
            for token, holders in router.directory.items()
        }),
    )


def shard_plan(spec: ClusterSpec, shard: int) -> ShardProgram:
    """The one shard program a cell needs: a slice of the memoised plan.

    The plan is routed once per process and spec — by ``run_cluster``
    before it fans out, so forked workers inherit it — never once per
    cell.  The cell still receives only ``(spec, shard)``: the routed
    streams stay out of pickles and cache keys, and because the program
    is frozen no cell can pass state to the next through the memo.
    """
    if not 0 <= shard < spec.shards:
        raise ConfigurationError(f"shard {shard} outside [0, {spec.shards})")
    return build_plan(spec).programs[shard]
