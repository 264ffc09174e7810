"""Unit tests for workload generation and the queue-depth runner."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeviceError, KeyNotFoundError, WorkloadError
from repro.kvbench.distributions import (
    ZipfianGenerator,
    sequential_indices,
    sliding_window_indices,
    uniform_indices,
)
from repro.kvbench.report import format_table, sparkline
from repro.kvbench.runner import drive_workload, execute_workload
from repro.kvbench.workload import (
    Operation,
    OpType,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Environment, set_pop_observer


# -- distributions ---------------------------------------------------------------


def test_sequential_wraps_population():
    assert list(sequential_indices(5, 8)) == [0, 1, 2, 3, 4, 0, 1, 2]


def test_uniform_deterministic_by_seed():
    a = list(uniform_indices(100, 50, seed=3))
    b = list(uniform_indices(100, 50, seed=3))
    c = list(uniform_indices(100, 50, seed=4))
    assert a == b
    assert a != c
    assert all(0 <= index < 100 for index in a)


def test_zipfian_skew():
    generator = ZipfianGenerator(10_000, theta=0.99, seed=7, scramble=False)
    draws = list(generator.indices(20_000))
    # Rank 0 is by far the most common under no scrambling.
    share_of_top = draws.count(0) / len(draws)
    assert share_of_top > 0.05
    assert all(0 <= index < 10_000 for index in draws)


def test_zipfian_scramble_disperses_hot_keys():
    plain = ZipfianGenerator(10_000, seed=7, scramble=False)
    scrambled = ZipfianGenerator(10_000, seed=7, scramble=True)
    top_plain = max(set(plain.indices(5000)), key=list(plain.indices(5000)).count)
    draws = list(scrambled.indices(5000))
    hottest = max(set(draws), key=draws.count)
    assert hottest != top_plain  # the hot identity moved somewhere else
    assert draws.count(hottest) / len(draws) > 0.03  # but skew remains


def test_zipfian_validates_parameters():
    with pytest.raises(WorkloadError):
        ZipfianGenerator(0)
    with pytest.raises(WorkloadError):
        ZipfianGenerator(10, theta=1.5)


def test_sliding_window_traverses_population():
    draws = list(sliding_window_indices(1000, 2000, window_fraction=0.05, seed=3))
    assert all(0 <= index < 1000 for index in draws)
    assert min(draws[:100]) < 100  # starts at the front
    assert max(draws[-100:]) > 800  # ends near the back


def test_sliding_window_stays_local():
    draws = list(sliding_window_indices(10_000, 1000, window_fraction=0.01, seed=3))
    for position, index in enumerate(draws):
        base = int(position / 1000 * 10_000)
        assert base <= index <= base + 100 or index < 100  # wraparound tail


# -- workload specs -----------------------------------------------------------------


def test_insert_uniform_covers_every_key_once():
    spec = WorkloadSpec(n_ops=50, op="insert", pattern=Pattern.UNIFORM,
                        population=50)
    keys = [op.key_index for op in generate_operations(spec)]
    assert sorted(keys) == list(range(50))
    assert keys != list(range(50))  # but not in order


def test_read_ops_have_zero_payload():
    spec = WorkloadSpec(n_ops=10, op="read", population=10)
    for op in generate_operations(spec):
        assert op.op is OpType.READ
        assert op.value_bytes == 0


def test_mixed_workload_fraction():
    spec = WorkloadSpec(n_ops=2000, op="mixed", population=100,
                        read_fraction=0.7, value_bytes=100)
    kinds = [op.op for op in generate_operations(spec)]
    reads = sum(1 for kind in kinds if kind is OpType.READ)
    assert 0.6 < reads / len(kinds) < 0.8


def test_keys_follow_scheme():
    scheme = KeyScheme(prefix=b"xy", digits=6)
    spec = WorkloadSpec(n_ops=5, op="insert", pattern=Pattern.SEQUENTIAL,
                        key_scheme=scheme)
    ops = list(generate_operations(spec))
    assert ops[0].key == b"xy000000"
    assert all(len(op.key) == scheme.key_bytes for op in ops)


def test_spec_validation():
    with pytest.raises(WorkloadError):
        WorkloadSpec(n_ops=0, op="insert")
    with pytest.raises(WorkloadError):
        WorkloadSpec(n_ops=1, op="unknown")
    with pytest.raises(WorkloadError):
        WorkloadSpec(n_ops=1, op="insert", value_bytes=-1)
    # At construction, not when the stream is first generated: a spec
    # that constructs is hashed into cache keys and sent to workers.
    with pytest.raises(WorkloadError, match="population must be >= 1"):
        WorkloadSpec(n_ops=3, op="read", population=0)


# -- runner ----------------------------------------------------------------------------


class FixedLatencyAdapter:
    """Test double: constant-latency op execution with failure injection."""

    device = None  # no flash underneath: nothing for DeviceStats capture

    def __init__(self, env, latency_us=10.0, fail_every=0):
        self.env = env
        self.latency_us = latency_us
        self.fail_every = fail_every
        self.executed = 0

    def execute(self, op):
        self.executed += 1
        if self.fail_every and self.executed % self.fail_every == 0:
            from repro.errors import KeyNotFoundError

            def failing(env):
                yield env.timeout(1.0)
                raise KeyNotFoundError("injected")

            return failing(self.env)

        def success(env, nbytes):
            yield env.timeout(self.latency_us)
            return nbytes

        return success(self.env, op.value_bytes or 100)


def run_fixed(env, adapter, n_ops=40, queue_depth=4):
    spec = WorkloadSpec(n_ops=n_ops, op="insert", pattern=Pattern.SEQUENTIAL,
                        value_bytes=100)
    process = env.process(
        drive_workload(env, adapter, generate_operations(spec), queue_depth)
    )
    return env.run_until_complete(process)


def test_runner_executes_all_ops():
    env = Environment()
    adapter = FixedLatencyAdapter(env)
    result = run_fixed(env, adapter)
    assert result.completed_ops == 40
    assert result.failed_ops == 0
    assert result.latency.count() == 40


def test_queue_depth_parallelism():
    env1 = Environment()
    serial = run_fixed(env1, FixedLatencyAdapter(env1), queue_depth=1)
    env4 = Environment()
    parallel = run_fixed(env4, FixedLatencyAdapter(env4), queue_depth=4)
    assert parallel.elapsed_us == pytest.approx(serial.elapsed_us / 4)


def test_runner_counts_failures_without_raising():
    env = Environment()
    adapter = FixedLatencyAdapter(env, fail_every=5)
    result = run_fixed(env, adapter)
    assert result.failed_ops == 8
    assert result.completed_ops == 32


def test_runner_throughput():
    env = Environment()
    result = run_fixed(env, FixedLatencyAdapter(env, latency_us=10.0),
                       n_ops=100, queue_depth=1)
    assert result.throughput_kops() == pytest.approx(100.0)  # ops per ms


def test_a_later_phase_counts_its_bandwidth_from_its_own_start():
    """A measured phase that starts at t > 0 reports its bytes over its
    own elapsed time, and its first window opens at its start."""
    from repro.core.experiment import build_kv_rig, lab_geometry
    from repro.kvbench.runner import run_phase
    from repro.units import mib_per_sec

    rig = build_kv_rig(lab_geometry(8))
    run_phase(rig, "fill", WorkloadSpec(n_ops=2000, op="insert"), 8)
    read = run_phase(rig, "read",
                     WorkloadSpec(n_ops=2000, op="read", population=2000), 8)
    assert read.started_us > 0.0
    moved = sum(point.bytes_moved for point in read.bandwidth.points)
    assert moved == 2000 * 4096
    assert read.bandwidth.points[0].start_us == read.started_us
    assert read.bandwidth.overall_mib_per_sec() == pytest.approx(
        mib_per_sec(moved, read.elapsed_us))


def test_runner_rejects_bad_queue_depth():
    env = Environment()
    with pytest.raises(WorkloadError):
        env.run_until_complete(
            env.process(
                drive_workload(env, FixedLatencyAdapter(env), [], queue_depth=0)
            )
        )


# -- the pool + per-op envelope against the loop they replaced -------------------------


def reference_drive(env, execute, ops, depth, stop_after_us, counts):
    """The closed loop as it stood before serve_ops/closed_loop: the oracle."""
    deadline = env.now + stop_after_us
    stream = iter(ops)

    def worker():
        for op in stream:
            if env.now >= deadline:
                return
            try:
                yield env.process(execute(op))
            except DeviceError:
                counts["failed"] += 1
                continue
            counts["completed"] += 1

    yield env.all_of(
        [env.process(worker(), name=f"run.w{i}") for i in range(depth)]
    )


class ScriptedAdapter:
    """Per-op latency and failure from a script; logs every completion."""

    device = None

    def __init__(self, env, script):
        self.env = env
        self.script = script
        self.log = []

    def execute(self, op):
        latency, fails = self.script[op.key_index]
        started = self.env.now
        yield self.env.timeout(latency)
        self.log.append((op.key_index, started, self.env.now, fails))
        if fails:
            raise KeyNotFoundError("scripted")
        return op.value_bytes


@settings(max_examples=60, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=6),
    script=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            st.booleans(),
        ),
        max_size=40,
    ),
    stop_after_us=st.one_of(
        st.just(float("inf")), st.floats(min_value=0.0, max_value=300.0)
    ),
)
def test_pool_and_envelope_match_the_reference_loop(depth, script, stop_after_us):
    ops = [Operation(OpType.UPDATE, b"k", i, 10) for i in range(len(script))]

    ref_env = Environment()
    ref = ScriptedAdapter(ref_env, script)
    counts = {"completed": 0, "failed": 0}
    ref_env.run_until_complete(ref_env.process(
        reference_drive(ref_env, ref.execute, ops, depth, stop_after_us, counts),
        name="run",
    ))

    env = Environment()
    adapter = ScriptedAdapter(env, script)
    result = execute_workload(
        env, adapter, ops, queue_depth=depth, stop_after_us=stop_after_us
    )

    assert adapter.log == ref.log  # completion order and timestamps
    assert (result.completed_ops, result.failed_ops) == (
        counts["completed"], counts["failed"]
    )
    assert result.latency.count() == counts["completed"]
    assert (env.now, env.processed_events) == (
        ref_env.now, ref_env.processed_events
    )


@pytest.mark.parametrize("depth", [1, 3])
def test_device_error_under_call_is_a_failed_op_with_the_reference_pops(depth):
    """serve_ops runs each op through ``env.call``.  At depth 1 nothing
    else is due when a failing op ends, so its failure is accounted for
    in place; at depth 3 the workers tie at every instant and it goes
    through the queue.  Both ways it is one failed op, and the popped
    (time, seq, type, name) stream is the spawn-and-wait loop's."""
    script = [(5.0, True), (5.0, False), (0.0, True), (5.0, True), (5.0, False),
              (0.0, False), (5.0, True)]
    ops = [Operation(OpType.UPDATE, b"k", i, 10) for i in range(len(script))]

    def observed(env, run):
        pops, in_place_completions = [], []

        def observer(now, event):
            pops.append(
                (now, event._seq, type(event).__name__, getattr(event, "name", ""))
            )
            if event is env._returned:
                in_place_completions.append(now)

        set_pop_observer(observer)
        try:
            run()
        finally:
            set_pop_observer(None)
        return pops, in_place_completions

    ref_env = Environment()
    ref = ScriptedAdapter(ref_env, script)
    counts = {"completed": 0, "failed": 0}
    ref_pops, _ = observed(ref_env, lambda: ref_env.run_until_complete(ref_env.process(
        reference_drive(ref_env, ref.execute, ops, depth, float("inf"), counts),
        name="run",
    )))

    env = Environment()
    adapter = ScriptedAdapter(env, script)
    results = []
    pops, in_place = observed(env, lambda: results.append(
        execute_workload(env, adapter, ops, queue_depth=depth)
    ))

    assert (results[0].completed_ops, results[0].failed_ops) == (3, 4)
    assert (counts["completed"], counts["failed"]) == (3, 4)
    assert pops == ref_pops
    assert len(pops) == env.processed_events == ref_env.processed_events
    # Depth 1: every completion, the four failures included, in place.
    assert len(in_place) == (len(script) if depth == 1 else 0)


# -- report ---------------------------------------------------------------------------


def test_format_table_alignment():
    table = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert "22.25" in lines[3]


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [["only-one"]])


def test_sparkline():
    line = sparkline([0.0, 1.0, 2.0, 4.0])
    assert len(line) == 4
    assert line[0] == "▁"
    assert line[-1] == "█"
    assert sparkline([]) == ""
