"""Acceptance tests for the sharded multi-device cluster (ISSUE 7).

The headline properties:

* a seeded 4-shard R=2 run with one mid-run read-only degradation
  completes with zero lost acknowledged writes;
* serial, process-pool, and cache-served executions produce
  byte-identical cluster fingerprints;
* quota-rejected inserts never reach a device;
* the router's op accounting balances exactly.
"""

import multiprocessing
from dataclasses import fields, replace
from typing import Iterator, Tuple

import pytest

from repro.cluster import router
from repro.cluster.router import PlannedOp, build_plan, interleave, shard_plan
from repro.cluster.run import ClusterResult, aggregate_device_stats, run_cluster
from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec, shard_name
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner
from repro.ftl.core import DeviceStats
from repro.kvbench.workload import OpType


def _acceptance_spec() -> ClusterSpec:
    """The issue's acceptance scenario, sized for test runtime."""
    return ClusterSpec(
        shards=4,
        replication=2,
        partitions=16,
        tenants=(
            TenantSpec(name="ta", workload="A", n_ops=150,
                       population=300, seed=11),
            TenantSpec(name="tb", workload="B", n_ops=150,
                       population=300, seed=12),
        ),
        degrade=(DegradeEvent(shard=1, at_op=150),),
        rebalance_window_ops=100,
        seed=7,
    )


@pytest.fixture(scope="module")
def acceptance_run() -> Iterator[Tuple[ClusterSpec, ClusterResult]]:
    spec = _acceptance_spec()
    yield spec, run_cluster(spec)


# -- zero lost acknowledged writes ---------------------------------------------


def test_degraded_run_loses_no_acknowledged_writes(acceptance_run):
    spec, result = acceptance_run
    assert result.degraded_shards == [1]
    assert result.failed_ops == 0
    assert result.verify_checked > 0
    assert result.verify_missing == 0
    assert result.zero_lost_writes
    # The retirement produced real drain traffic onto the survivors.
    assert result.drain_ops > 0
    degraded = result.shards[1]
    assert degraded.degraded and degraded.sacrificial_writes > 0
    assert degraded.degrade_at_us > 0
    for shard in result.shards:
        if shard.shard != 1:
            assert not shard.degraded


def test_rebalance_phases_are_recorded(acceptance_run):
    _, result = acceptance_run
    labels = set()
    for shard in result.shards:
        labels.update(shard.latency)
    assert {"pre", "rebalance", "drain"} <= labels
    p99, p999 = result.tail("rebalance")
    assert 0 < p99 <= p999


def test_cluster_rollups_are_consistent(acceptance_run):
    spec, result = acceptance_run
    assert result.client_ops == spec.total_client_ops
    # Write replication routs more device ops than the client issued.
    assert result.routed_ops > result.client_ops
    assert result.completed_ops == result.routed_ops + result.drain_ops
    assert result.elapsed_us > 0
    assert result.throughput_kops() > 0
    assert 0 < result.router_share() < 1
    stats = result.device_stats()
    assert stats.flash_programs > 0
    assert stats.flash_reads > 0


# -- byte-reproducibility across execution modes -------------------------------


def test_fingerprint_identical_serial_parallel_cached(acceptance_run, tmp_path, pin):
    spec, serial = acceptance_run
    runner = SweepRunner(workers=2, cache=True, cache_dir=str(tmp_path))
    parallel = run_cluster(spec, runner)
    assert parallel.fingerprint() == serial.fingerprint()
    cached = run_cluster(spec, runner)
    assert cached.fingerprint() == serial.fingerprint()
    # The second runner pass was served entirely from the on-disk cache.
    report = runner.last_report
    assert report.hits == spec.shards
    pin("identity.cluster.acceptance", serial.fingerprint())


def test_the_benchmark_cluster_spec_keeps_its_fingerprint(pin):
    """The ``cluster_rebalance`` workload's spec, as ``bench/`` builds it."""
    from bench.workloads.cluster_rebalance import ClusterRebalance

    pin("identity.cluster.bench",
        run_cluster(ClusterRebalance(3, 1.0)._spec(trace=False)).fingerprint())


# -- a cluster run plans once --------------------------------------------------


def test_a_cluster_run_routes_once_per_process_and_spec(
    monkeypatch, tmp_path
):
    """Set-up + cold + warm, the benchmark's sequence: 7 routers before
    the memo (N+1 per computed run, 1 per planned or cache-served one)."""
    built = []
    routed = []

    class CountingRouter(router._Router):
        def __init__(self, spec):
            built.append(spec)
            super().__init__(spec)

        def route_client(self, t, op, pos):
            routed.append(pos)
            super().route_client(t, op, pos)

    monkeypatch.setattr(router, "_Router", CountingRouter)
    build_plan.cache_clear()
    spec = _acceptance_spec()
    build_plan(spec)
    runner = SweepRunner(workers=1, cache=True, cache_dir=str(tmp_path))
    cold = run_cluster(spec, runner)
    twin = _acceptance_spec()
    assert twin is not spec and twin == spec
    warm = run_cluster(twin, runner)
    assert runner.last_report.hits == spec.shards
    assert warm.fingerprint() == cold.fingerprint()
    assert len(built) == 1
    assert routed == list(range(spec.total_client_ops))
    # Uncached and inline, a distinct equal-valued spec still plans nothing.
    run_cluster(_acceptance_spec())
    assert len(built) == 1


def test_equal_specs_share_one_plan_and_any_field_misses():
    spec = _acceptance_spec()
    plan = build_plan(spec)
    assert build_plan(replace(spec)) is plan
    for shard in range(spec.shards):
        assert shard_plan(spec, shard) is plan.programs[shard]
    changed = dict(
        shards=5, replication=3, partitions=8, vnodes=8,
        personalities=("kv", "kv", "block", "kv"),
        tenants=(replace(spec.tenants[0], n_ops=151), spec.tenants[1]),
        degrade=(),
        rebalance_window_ops=50, seed=8, queue_depth=4, blocks_per_plane=8,
        trace=True, verify=False,
    )
    assert set(changed) == {f.name for f in fields(ClusterSpec)}
    for name, value in changed.items():
        build_plan(spec)  # most recent again, whatever was evicted
        before = build_plan.cache_info().misses
        other = build_plan(replace(spec, **{name: value}))
        assert other is not plan, name
        assert build_plan.cache_info().misses == before + 1, name


def test_a_shared_plan_cannot_be_written_to():
    spec = _acceptance_spec()
    plan = build_plan(spec)
    program = plan.programs[0]
    with pytest.raises(AttributeError):
        program.segments[0].append(program.segments[0][0])
    with pytest.raises(AttributeError):
        program.degrade_after = 0
    with pytest.raises(AttributeError):
        plan.programs = ()
    with pytest.raises(TypeError):
        plan.programs[0] = program
    for mapping in (plan.rejected_inserts, plan.router_not_found,
                    plan.initial_directory, plan.final_directory):
        with pytest.raises(TypeError):
            mapping["ta"] = 1
    # A result owns its bookkeeping: writing to it leaves the plan alone.
    result = run_cluster(spec)
    assert result.rejected_inserts == plan.rejected_inserts
    assert result.final_directory == plan.final_directory != {}
    result.rejected_inserts["ta"] += 1
    result.router_not_found.clear()
    result.final_directory.clear()
    assert build_plan(spec) is plan
    assert plan.rejected_inserts == {"ta": 0, "tb": 0}
    assert set(plan.router_not_found) == {"ta", "tb"}
    assert len(plan.final_directory) == 2 * spec.partitions


def test_the_memo_is_bounded_and_an_evicted_plan_replans_equal():
    build_plan.cache_clear()
    bound = build_plan.cache_info().maxsize
    assert 2 <= bound <= 4
    specs = [replace(_acceptance_spec(), seed=seed) for seed in range(bound + 1)]
    plans = [build_plan(spec) for spec in specs]
    assert build_plan.cache_info().currsize == bound
    assert all(build_plan(spec) is plan
               for spec, plan in zip(specs[1:], plans[1:]))
    replanned = build_plan(specs[0])  # the oldest was evicted
    assert replanned is not plans[0] and replanned == plans[0]


def _plan_state_of_a_forked_child(spec: ClusterSpec) -> Tuple[int, int]:
    before = build_plan.cache_info()
    shard_plan(spec, 0)
    return before.currsize, build_plan.cache_info().misses - before.misses


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the inherited memo is a property of the fork start method",
)
def test_forked_worker_inherits_the_plan():
    build_plan.cache_clear()
    spec = _acceptance_spec()
    build_plan(spec)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        entries, planned = pool.apply(_plan_state_of_a_forked_child, (spec,))
    assert (entries, planned) == (1, 0)


# -- router plan properties ----------------------------------------------------


def test_plan_accounting_balances(acceptance_run):
    spec, _ = acceptance_run
    plan = build_plan(spec)
    assert plan.client_ops == spec.total_client_ops
    emitted = sum(program.total_ops for program in plan.programs)
    assert emitted == plan.routed_ops + plan.drain_ops
    # Every program a worker re-derives matches the full plan's slice.
    for program in plan.programs:
        assert shard_plan(spec, program.shard) == program
    # The degraded shard left the directory entirely.
    retired = shard_name(1)
    assert all(
        retired not in holders for holders in plan.final_directory.values()
    )
    assert any(
        retired in holders for holders in plan.initial_directory.values()
    )
    # Surviving entries hold exactly R (3 survivors >= R=2) replicas.
    assert all(
        len(holders) == spec.replication
        for holders in plan.final_directory.values()
    )


def test_interleave_is_proportional_and_order_preserving():
    primary = [PlannedOp(OpType.READ, 0, i, 0, "pre") for i in range(6)]
    extra = [PlannedOp(OpType.INSERT, 0, i, 8, "drain") for i in range(3)]
    merged = interleave(primary, extra)
    assert len(merged) == 9
    assert [op.index for op in merged if op.label == "pre"] == list(range(6))
    assert [op.index for op in merged if op.label == "drain"] == list(range(3))
    # The extras spread through the stream instead of clumping at an end.
    positions = [i for i, op in enumerate(merged) if op.label == "drain"]
    assert positions[0] < 3 and positions[-1] >= len(merged) - 3
    assert interleave(primary, []) == primary
    assert interleave([], extra) == extra


# -- tenant quotas -------------------------------------------------------------


def test_quota_rejected_inserts_never_reach_a_device():
    # Workload D is insert-heavy; cap the tenant at its prefill so every
    # insert bounces off the router.
    spec = ClusterSpec(
        shards=2,
        replication=1,
        partitions=8,
        vnodes=8,
        tenants=(
            TenantSpec(name="tq", workload="D", n_ops=120, population=200,
                       quota_pairs=200, seed=5),
        ),
        seed=9,
    )
    plan = build_plan(spec)
    assert plan.rejected_inserts["tq"] > 0
    for program in plan.programs:
        for segment in program.segments:
            for op in segment:
                assert op.index < 200  # nothing past the quota was routed
    result = run_cluster(spec)
    assert result.zero_lost_writes
    assert result.rejected_inserts["tq"] == plan.rejected_inserts["tq"]


def test_unlimited_quota_accepts_inserts():
    spec = ClusterSpec(
        shards=2,
        replication=1,
        partitions=8,
        vnodes=8,
        tenants=(
            TenantSpec(name="tq", workload="D", n_ops=120, population=200,
                       seed=5),
        ),
        seed=9,
    )
    plan = build_plan(spec)
    assert plan.rejected_inserts["tq"] == 0
    assert any(
        op.index >= 200
        for program in plan.programs
        for segment in program.segments
        for op in segment
    )


# -- personalities and edge shapes ---------------------------------------------


def test_mixed_personality_cluster_runs_clean():
    spec = ClusterSpec(
        shards=2,
        replication=2,
        partitions=8,
        vnodes=8,
        personalities=("kv", "block"),
        tenants=(
            TenantSpec(name="ta", workload="B", n_ops=60, population=120,
                       seed=3),
        ),
        seed=13,
    )
    result = run_cluster(spec)
    assert result.zero_lost_writes
    assert [shard.personality for shard in result.shards] == ["kv", "block"]
    # Only the KV shard runs device-side verification.
    assert result.shards[0].verify_checked > 0
    assert result.shards[1].verify_checked == 0


def test_r1_degradation_under_replicates_but_loses_nothing():
    spec = ClusterSpec(
        shards=2,
        replication=1,
        partitions=8,
        vnodes=8,
        tenants=(
            TenantSpec(name="ta", workload="B", n_ops=80, population=160,
                       seed=3),
        ),
        degrade=(DegradeEvent(shard=0, at_op=40),),
        rebalance_window_ops=30,
        seed=13,
    )
    result = run_cluster(spec)
    assert result.degraded_shards == [0]
    assert result.zero_lost_writes


# -- aggregation ---------------------------------------------------------------


def test_aggregate_device_stats_sums_fields():
    a = DeviceStats()
    b = DeviceStats()
    a.flash_programs = 3
    b.flash_programs = 4
    a.flash_reads = 10
    total = aggregate_device_stats([a, b])
    assert total.flash_programs == 7
    assert total.flash_reads == 10
    # Inputs are left untouched.
    assert a.flash_programs == 3 and b.flash_programs == 4


# -- spec validation -----------------------------------------------------------


def test_spec_validation_rejects_bad_shapes():
    tenant = TenantSpec(name="ta", workload="A", n_ops=10, population=10)
    with pytest.raises(ConfigurationError):
        ClusterSpec(shards=0)
    with pytest.raises(ConfigurationError):
        ClusterSpec(shards=2, replication=3)
    with pytest.raises(ConfigurationError):
        ClusterSpec(tenants=())
    with pytest.raises(ConfigurationError):
        ClusterSpec(tenants=(tenant, tenant))  # duplicate tag
    with pytest.raises(ConfigurationError):
        ClusterSpec(shards=2, personalities=("kv",))
    with pytest.raises(ConfigurationError):
        ClusterSpec(shards=2, personalities=("kv", "optane"))
    with pytest.raises(ConfigurationError):
        ClusterSpec(
            shards=2, tenants=(tenant,),
            degrade=(DegradeEvent(shard=0, at_op=0),
                     DegradeEvent(shard=1, at_op=1)),
        )  # would retire every shard
    with pytest.raises(ConfigurationError):
        ClusterSpec(
            shards=4, tenants=(tenant,),
            degrade=(DegradeEvent(shard=0, at_op=10),),
        )  # at_op past the stream end
    with pytest.raises(ConfigurationError):
        TenantSpec(name="!x", workload="A", n_ops=10, population=10)
    with pytest.raises(ConfigurationError):
        TenantSpec(name="ta", workload="G", n_ops=10, population=10)
    with pytest.raises(ConfigurationError):
        TenantSpec(name="ta", workload="A", n_ops=10, population=10,
                   quota_pairs=5)


def test_churn_tenant_runs_clean_and_deterministic():
    """A churn-workload tenant (trace-generator stream, ISSUE 10)
    routes through the cluster like any YCSB tenant: zero failures,
    zero missing keys, byte-identical fingerprints across runs."""
    spec = ClusterSpec(
        shards=2,
        replication=1,
        partitions=8,
        tenants=(
            TenantSpec(name="tc", workload="churn", n_ops=120,
                       population=240, seed=13),
        ),
        blocks_per_plane=8,
        seed=5,
    )
    result = run_cluster(spec)
    assert result.completed_ops == 120
    assert result.failed_ops == 0
    assert result.verify_missing == 0
    assert run_cluster(spec).fingerprint() == result.fingerprint()


def test_churn_window_is_an_eighth_of_the_population():
    # The hot window is population // 8, floored at one key.
    assert TenantSpec(name="ta", workload="churn", n_ops=10,
                      population=80).churn_window == 10
    assert TenantSpec(name="ta", workload="churn", n_ops=10,
                      population=4).churn_window == 1


def test_tenant_tags_are_four_byte_prefixes():
    assert TenantSpec(name="a", workload="A", n_ops=1,
                      population=1).tag == b"a___"
    assert TenantSpec(name="longname", workload="A", n_ops=1,
                      population=1).tag == b"long"


# -- router attribution covers one population -----------------------------------


def test_router_share_counts_failed_ops_in_both_totals():
    """``router_us_total`` used to grow per attempted op and
    ``op_time_us_total`` per success, so a mostly-failing shard reported a
    routing hop longer than its total operation time."""
    from repro.cluster.shard import ROUTER_US, _ShardCell
    from repro.errors import KeyNotFoundError

    class MostlyFailing:
        """Fails fast on every op but each tenth, which it passes through."""

        def __init__(self, env, inner):
            self.env, self.inner, self.seen = env, inner, 0

        def execute(self, op):
            self.seen += 1
            if self.seen % 10 == 0:
                return self.inner.execute(op)
            return self._fail()

        def _fail(self):
            yield self.env.timeout(0.5)
            raise KeyNotFoundError("injected")

    spec = ClusterSpec(
        shards=1, replication=1, partitions=4, vnodes=4, verify=False,
        tenants=(TenantSpec(name="ta", workload="C", n_ops=120,
                            population=200, seed=5),),
        blocks_per_plane=8,
    )
    cell = _ShardCell(spec, shard_plan(spec, 0))
    cell._adapters = [MostlyFailing(cell.env, a) for a in cell._adapters]
    shard = cell.run()

    assert shard.failed_ops > shard.completed_ops > 0
    terminal = shard.completed_ops + shard.failed_ops
    assert shard.router_us_total == pytest.approx(ROUTER_US * terminal)
    # What the successes do not account for is the failures' hop + 0.5 us.
    succeeded_us = shard.latency["all"].mean * shard.completed_ops
    assert shard.op_time_us_total - succeeded_us == pytest.approx(
        shard.failed_ops * (ROUTER_US + 0.5)
    )
    result = ClusterResult(spec, [shard], 0, 0, 0, {}, {}, {})
    assert 0 < result.router_share() < 1
