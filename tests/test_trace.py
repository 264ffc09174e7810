"""Tests for the span-tracing subsystem and latency attribution."""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.blockftl.config import BlockSSDConfig
from repro.core.experiment import build_block_rig, build_kv_rig, lab_geometry
from repro.errors import ConfigurationError, DeviceReadOnlyError, KeyNotFoundError
from repro.faults.model import FaultConfig
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import WorkloadSpec, generate_operations
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.metrics.attribution import LatencyBreakdown
from repro.sim.engine import Environment
from repro.trace.export import (
    chrome_trace_events,
    format_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.trace.run import PERSONALITIES, run_traced, scenarios
from repro.trace.tracer import (
    BUCKETS,
    NULL_SPAN,
    SpanRecord,
    TraceCollector,
    TraceConfig,
    Tracer,
)
from tests.conftest import call_ledger

SCHEME = KeyScheme(prefix=b"key-", digits=12)


def _traced_tracer(max_spans=1 << 18, **config_kwargs):
    config = TraceConfig(**config_kwargs)
    return Tracer(config, TraceCollector(max_spans), pid=1,
                  process_name="test-device")


def _kv_run(tracer, n_ops=400, queue_depth=4, value_bytes=4096):
    rig = build_kv_rig(lab_geometry(blocks_per_plane=16), tracer=tracer)
    rig.device.fast_fill(n_ops, value_bytes, SCHEME)
    spec = WorkloadSpec(
        n_ops=n_ops, op="mixed", population=n_ops, key_scheme=SCHEME,
        value_bytes=value_bytes, read_fraction=0.4, seed=5,
    )
    run = execute_workload(
        rig.env, rig.adapter, generate_operations(spec),
        queue_depth=queue_depth, name="traced",
    )
    return rig, run


def _block_run(tracer, n_ops=400, queue_depth=4, io_bytes=4096):
    rig = build_block_rig(lab_geometry(blocks_per_plane=16), tracer=tracer)
    adapter = rig.adapter(io_bytes)
    rig.device.prime_sequential_fill(rig.device.n_units // 4)
    spec = WorkloadSpec(
        n_ops=n_ops, op="mixed", population=n_ops, key_scheme=SCHEME,
        value_bytes=io_bytes, read_fraction=0.4, seed=5,
    )
    run = execute_workload(
        rig.env, adapter, generate_operations(spec),
        queue_depth=queue_depth, name="traced",
    )
    return rig, run


# -- configuration and collector ---------------------------------------------


def test_trace_config_validation():
    with pytest.raises(ConfigurationError):
        TraceConfig(max_spans=0)
    with pytest.raises(ConfigurationError):
        TraceConfig(categories=("op", "nonsense"))


def test_collector_ring_drops_oldest():
    collector = TraceCollector(max_spans=3)
    for i in range(5):
        collector.append(SpanRecord(1, "t", f"r{i}", "op", float(i), 1.0))
    assert len(collector) == 3
    assert collector.dropped == 2
    assert [r.name for r in collector.records()] == ["r2", "r3", "r4"]


def test_disabled_tracer_records_nothing():
    tracer = Tracer.disabled()
    tracer.bind(Environment())
    assert not tracer.enabled
    span = tracer.op("store")
    assert span is NULL_SPAN
    assert not span
    span.enter("flash")
    span.finish(anything=1)
    assert len(tracer.collector) == 0


#: Python calls into ``repro/trace/`` by the cell below with tracing off
#: (9.3 per op: the op root, one mark per phase, ``finish``, ``wants``).
#: A ceiling: lowering it needs no edit here.
TRACING_OFF_CALLS = 3715
#: Ceilings on the same cell's calls into all of ``repro/`` and into the
#: two layers that make most of them (measured: 50,880 / 8,584 / 21,235;
#: 52,013 / 8,584 / 22,368 before parked waits; 52,072 / 8,584 / 22,427
#: with the calendar queue; 58,681 / 10,955 / 22,427 with phase context
#: managers and per-op ``layout_blob``).  ``sim`` is held where it is: an
#: engine guard.  ``host path`` is ``kvbench`` + ``api`` + ``nvme``, the
#: adapter -> command envelope -> driver chain, at its measured 4,729 +
#: 2,480 + 2,000 (23.0 per op).
MODEL_PATH_CALLS = {
    "total": 51_199, "kvftl": 8_700, "sim": 21_235, "host path": 9_209,
}
LEDGER_CELL_EVENTS = 6303

#: The second cell, where serves queue: ``kv_gc_writes``' aged geometry
#: at 1/20 of its phase (4 hot blocks of pairs over a cold ballast two
#: blocks above the GC threshold, aged by 3,500 untimed updates, then
#: 1,100 updates at QD16 with GC running: 8 runs).  Measured: exactly
#: 43,960 events and 124,848 calls into ``sim`` (145,590 with a grant
#: event, a service event and a timeout per queued serve).
GC_CELL_EVENTS = 43_960
GC_CELL_SIM_CALLS = 124_848


def test_tracing_off_pays_nothing_extra_and_tracing_on_adds_no_events():
    """Pay-for-what-you-enable, counted instead of timed: a bound but
    disabled tracer makes exactly the calls into the trace package that
    no tracer makes, records nothing, and neither it nor a full tracer
    changes what the engine simulates.  The same ledger caps what the
    model layers may spend per operation."""

    def measure(tracer):
        rig = build_kv_rig(lab_geometry(blocks_per_plane=16), tracer=tracer)
        rig.device.fast_fill(400, 4096, SCHEME)
        spec = WorkloadSpec(
            n_ops=400, op="mixed", population=400, key_scheme=SCHEME,
            value_bytes=4096, read_fraction=0.3, seed=11,
        )
        _, calls = call_ledger(lambda: execute_workload(
            rig.env, rig.adapter, generate_operations(spec), queue_depth=8
        ))
        return calls, rig.env.processed_events

    disabled = Tracer(TraceConfig(enabled=False), TraceCollector(1024))
    enabled = _traced_tracer()
    none_calls, none_events = measure(None)
    disabled_calls, disabled_events = measure(disabled)
    assert (disabled_calls["trace"], disabled_events) == (
        none_calls["trace"], none_events
    )
    assert len(disabled.collector) == 0
    enabled_calls, enabled_events = measure(enabled)
    assert enabled_events == none_events == LEDGER_CELL_EVENTS
    assert enabled_calls["trace"] > none_calls["trace"]
    assert len(enabled.collector) > 0
    assert none_calls["trace"] <= TRACING_OFF_CALLS
    none_calls["total"] = sum(none_calls.values())
    none_calls["host path"] = sum(
        none_calls[package] for package in ("kvbench", "api", "nvme")
    )
    for package, ceiling in MODEL_PATH_CALLS.items():
        assert none_calls[package] <= ceiling, package


def test_queued_serves_under_gc_stay_within_the_sim_ledger():
    """The ledger where grants queue behind GC's programs and erases: the
    engine's calls per event there are held like the pinned cell's."""
    hot_scheme = KeyScheme(prefix=b"fill", digits=12)
    rig = build_kv_rig(lab_geometry(8), config=KVSSDConfig(stream_width=4))
    device = rig.device
    geometry = device.array.geometry
    per_block = geometry.pages_per_block * blobs_per_page(
        hot_scheme.key_bytes, 4096, geometry.page_bytes, device.config
    )
    hot = 4 * per_block
    device.fast_fill(hot, 4096, hot_scheme)
    cold_blocks = device.free_block_count() - 4 - device.core.gc_threshold_blocks - 2
    device.fast_fill(cold_blocks * per_block, 4096, KeyScheme(prefix=b"cold", digits=12))

    def updates(n_ops, seed):
        return execute_workload(rig.env, rig.adapter, generate_operations(WorkloadSpec(
            n_ops=n_ops, op="update", population=hot, key_scheme=hot_scheme,
            value_bytes=4096, seed=seed,
        )), queue_depth=16)

    updates(3_500, 2)
    events, gc_runs = rig.env.processed_events, device.stats.gc_runs
    _, calls = call_ledger(lambda: updates(1_100, 1))
    assert device.stats.gc_runs - gc_runs == 8
    assert rig.env.processed_events - events == GC_CELL_EVENTS
    assert calls["sim"] <= GC_CELL_SIM_CALLS


def test_unbound_tracer_is_inert_and_bind_is_idempotent():
    tracer = _traced_tracer()
    assert not tracer.enabled
    assert tracer.op("store") is NULL_SPAN
    env = Environment()
    tracer.bind(env)
    tracer.bind(env)  # same env: fine
    assert tracer.enabled
    with pytest.raises(ConfigurationError):
        tracer.bind(Environment())


def test_category_filtering():
    tracer = _traced_tracer(categories=("flash",))
    tracer.bind(Environment())
    assert tracer.wants("flash")
    assert not tracer.wants("op")
    assert tracer.op("store") is NULL_SPAN


# -- span mechanics -----------------------------------------------------------


def test_span_phases_accumulate_and_sum_to_duration():
    env = Environment()
    tracer = _traced_tracer()
    tracer.bind(env)

    def workload(env):
        span = tracer.op("store")
        span.enter("nvme")
        yield env.timeout(2.0)
        span.enter("flash")
        yield env.timeout(5.0)
        span.enter("flash")
        yield env.timeout(1.0)
        span.finish(tag="x")

    env.process(workload(env))
    env.run()
    records = tracer.collector.records()
    # One record per mark, in order, each closed by the next (or finish).
    assert [(r.name, r.ts, r.dur) for r in records if r.cat == "phase"] == [
        ("nvme", 0.0, 2.0), ("flash", 2.0, 5.0), ("flash", 7.0, 1.0),
    ]
    ops = [r for r in records if r.cat == "op"]
    assert len(ops) == 1
    record = ops[0]
    assert record is records[-1]
    assert record.dur == pytest.approx(8.0)
    assert record.args["components"] == {"nvme": 2.0, "flash": 6.0}
    assert record.args["tag"] == "x"
    assert sum(record.args["components"].values()) == pytest.approx(record.dur)


def test_span_lanes_give_concurrent_ops_distinct_tracks():
    env = Environment()
    tracer = _traced_tracer()
    tracer.bind(env)

    def op_process(env, delay):
        span = tracer.op("store")
        span.enter("flash")
        yield env.timeout(delay)
        span.finish()

    env.process(op_process(env, 5.0))
    env.process(op_process(env, 5.0))
    env.run()
    tracks = {r.track for r in tracer.collector.records() if r.cat == "op"}
    assert len(tracks) == 2


def _only_op(tracer):
    (record,) = [r for r in tracer.collector.records() if r.cat == "op"]
    return record


def test_device_error_charges_the_open_bucket_and_still_tiles():
    """An error raised between two marks: the time up to the raise goes to
    the bucket that was open, ``finish`` closes it, and the one ``op``
    record's components still sum to its duration."""
    tracer = _traced_tracer()
    rig = build_kv_rig(lab_geometry(blocks_per_plane=16), tracer=tracer)
    rig.device.fast_fill(8, 4096, SCHEME)

    def absent():
        with pytest.raises(KeyNotFoundError):
            yield from rig.api.retrieve(b"key-" + b"9" * 12)

    rig.env.run_until_complete(rig.env.process(absent()), limit=1e6)
    record = _only_op(tracer)
    components = record.args["components"]
    # Raised after the index-manager wait, inside the index bucket.
    assert list(components) == ["nvme", "controller", "index"]
    assert components["index"] == rig.device.config.retrieve_index_us
    assert sum(components.values()) == pytest.approx(record.dur)
    assert record.dur > 0.0

    tracer.collector.clear()
    rig.device.core.read_only = True

    def refused():
        with pytest.raises(DeviceReadOnlyError):
            yield from rig.api.store(SCHEME.key_for(1), 4096)

    started = rig.env.now
    rig.env.run_until_complete(rig.env.process(refused()), limit=1e6)
    record = _only_op(tracer)
    # Refused before the device's first mark: all of it is submission time.
    assert list(record.args["components"]) == ["nvme"]
    assert record.args["components"]["nvme"] == record.dur == rig.env.now - started


def test_read_retry_tiles_flash_then_recovery():
    tracer = _traced_tracer()
    rig = build_kv_rig(
        lab_geometry(blocks_per_plane=16), tracer=tracer,
        fault_config=FaultConfig(),
    )
    rig.device.fast_fill(8, 4096, SCHEME)
    rig.device.array.faults.schedule("read_corrected")
    rig.env.run_until_complete(
        rig.env.process(rig.api.retrieve(SCHEME.key_for(3))), limit=1e6
    )
    assert rig.device.stats.read_retries == 1
    record = _only_op(tracer)
    phases = [
        r for r in tracer.collector.records()
        if r.cat == "phase" and r.track == record.track
    ]
    assert [r.name for r in phases] == [
        "nvme", "controller", "index", "flash", "recovery",
    ]
    # Each phase starts where the last one ended, from the op's start to
    # its end: no gap, no overlap.
    edge = record.ts
    for phase in phases:
        assert phase.ts == edge
        edge = phase.ts + phase.dur
    assert edge == pytest.approx(record.ts + record.dur)
    assert record.args["components"]["recovery"] == pytest.approx(
        rig.device.stats.recovery_us
    )
    assert sum(record.args["components"].values()) == pytest.approx(record.dur)


# -- end-to-end attribution ---------------------------------------------------


@pytest.mark.parametrize("personality", ["kv", "block"])
def test_op_components_sum_to_measured_latency(personality):
    tracer = _traced_tracer()
    runner = _kv_run if personality == "kv" else _block_run
    _, run = runner(tracer)
    assert run.failed_ops == 0
    ops = [r for r in tracer.collector.records() if r.cat == "op"]
    assert len(ops) >= run.completed_ops
    for record in ops:
        components = record.args["components"]
        assert set(components) <= set(BUCKETS)
        assert sum(components.values()) == pytest.approx(record.dur, abs=1e-6)


@pytest.mark.parametrize("personality", ["kv", "block"])
def test_flash_spans_agree_with_device_stats(personality):
    """Trace flash-timeline time equals DeviceStats.flash_busy_us exactly."""
    tracer = _traced_tracer()
    runner = _kv_run if personality == "kv" else _block_run
    rig, run = runner(tracer, queue_depth=1)
    breakdown = LatencyBreakdown.from_records(
        tracer.collector.records(), pid=tracer.pid
    )
    flash_span_us = breakdown.category_time_us("flash")
    assert flash_span_us > 0.0
    assert flash_span_us == pytest.approx(
        rig.device.stats.flash_busy_us, abs=1e-6
    )
    summary = rig.device.stats.summary()
    assert summary["flash_busy_ms"] == pytest.approx(
        flash_span_us / 1000.0, abs=1e-6
    )
    # The measured-phase delta agrees too (the run started at t=0 here).
    assert run.device_stats.flash_busy_us == pytest.approx(
        rig.device.stats.flash_busy_us
    )


@pytest.mark.parametrize("personality", ["kv", "block"])
def test_buffer_spans_agree_with_device_stats(personality):
    """Every op root's ``buffer`` component, summed, is the phase's
    ``DeviceStats.buffer_stall_us`` delta: 16 KiB inserts at QD32 into a
    64 KiB write buffer, so admission stalls all phase."""
    tracer = _traced_tracer()
    geometry = lab_geometry(blocks_per_plane=16)
    if personality == "kv":
        rig = build_kv_rig(
            geometry, KVSSDConfig(write_buffer_bytes=64 * 1024), tracer=tracer
        )
        adapter = rig.adapter
    else:
        rig = build_block_rig(
            geometry, BlockSSDConfig(write_buffer_bytes=64 * 1024),
            tracer=tracer,
        )
        adapter = rig.adapter(16 * 1024)
    spec = WorkloadSpec(
        n_ops=300, op="insert", key_scheme=SCHEME, value_bytes=16 * 1024,
        seed=5,
    )
    run = execute_workload(
        rig.env, adapter, generate_operations(spec), queue_depth=32,
        name="stalled",
    )
    assert (run.completed_ops, run.failed_ops) == (300, 0)
    ops = [r for r in tracer.collector.records() if r.cat == "op"]
    assert len(ops) == 300
    buffer_us = sum(r.args["components"].get("buffer", 0.0) for r in ops)
    assert run.device_stats.buffer_stall_us > 1000.0 * len(ops)
    assert buffer_us == pytest.approx(run.device_stats.buffer_stall_us, rel=1e-12)


# -- aggregation --------------------------------------------------------------


def test_latency_breakdown_aggregates_records():
    records = [
        SpanRecord(1, "op.0", "store", "op", 0.0, 10.0,
                   {"components": {"nvme": 4.0, "flash": 6.0}}),
        SpanRecord(1, "op.0", "store", "op", 10.0, 20.0,
                   {"components": {"nvme": 5.0, "flash": 15.0}}),
        SpanRecord(2, "op.0", "store", "op", 0.0, 99.0,
                   {"components": {"nvme": 99.0}}),  # other device
        SpanRecord(1, "die0", "read", "flash", 0.0, 7.0),
        SpanRecord(1, "gc", "gc.collect", "gc", 0.0, 3.0),
    ]
    breakdown = LatencyBreakdown.from_records(records, pid=1)
    assert breakdown.op_types() == ["store"]
    assert breakdown.count("store") == 2
    assert breakdown.mean_total_us("store") == pytest.approx(15.0)
    assert breakdown.mean_components_us("store") == pytest.approx(
        {"nvme": 4.5, "flash": 10.5}
    )
    assert breakdown.category_time_us("flash") == pytest.approx(7.0)
    assert breakdown.category_time_us("gc") == pytest.approx(3.0)


def test_latency_breakdown_since_us_filters_prefill():
    records = [
        SpanRecord(1, "op.0", "store", "op", 0.0, 10.0,
                   {"components": {"flash": 10.0}}),
        SpanRecord(1, "op.0", "store", "op", 100.0, 30.0,
                   {"components": {"flash": 30.0}}),
    ]
    breakdown = LatencyBreakdown.from_records(records, pid=1, since_us=50.0)
    assert breakdown.count("store") == 1
    assert breakdown.mean_total_us("store") == pytest.approx(30.0)


def test_format_breakdown_components_sum_column():
    records = [
        SpanRecord(1, "op.0", "store", "op", 0.0, 10.0,
                   {"components": {"nvme": 4.0, "flash": 6.0}}),
    ]
    table = format_breakdown(LatencyBreakdown.from_records(records))
    assert "store" in table
    for header in ("mean us", "p99 us", "p999 us", "sum us"):
        assert header in table


# -- export -------------------------------------------------------------------


def test_chrome_trace_structure(tmp_path):
    tracer = _traced_tracer()
    _kv_run(tracer, n_ops=60)
    document = to_chrome_trace(tracer.collector)
    events = document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"
    assert document["otherData"]["dropped_spans"] == 0
    phases = {event["ph"] for event in events}
    assert "X" in phases and "M" in phases
    process_meta = [e for e in events
                    if e["ph"] == "M" and e["name"] == "process_name"]
    assert {e["args"]["name"] for e in process_meta} == {"test-device"}
    thread_meta = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
    assert {e["args"]["name"] for e in thread_meta} >= {"die0", "ch0"}
    for event in events:
        if event["ph"] == "X":
            assert event["dur"] > 0.0
        elif event["ph"] == "i":
            assert event["s"] == "t"
    # Round-trips through JSON and the file writer.
    out = tmp_path / "trace.json"
    count = write_chrome_trace(tracer.collector, str(out))
    assert count == len(events)
    loaded = json.loads(out.read_text())
    assert len(loaded["traceEvents"]) == count


def test_chrome_trace_tids_stable_per_track():
    collector = TraceCollector(64)
    collector.process_names[1] = "dev"
    for ts in (0.0, 5.0):
        collector.append(SpanRecord(1, "die0", "read", "flash", ts, 1.0))
    collector.append(SpanRecord(1, "ch0", "xfer", "flash", 2.0, 1.0))
    events = [e for e in chrome_trace_events(collector) if e["ph"] == "X"]
    die_tids = {e["tid"] for e in events if e["name"] == "read"}
    ch_tids = {e["tid"] for e in events if e["name"] == "xfer"}
    assert len(die_tids) == 1
    assert len(ch_tids) == 1
    assert die_tids != ch_tids


# -- scenario runner and CLI --------------------------------------------------


def test_run_traced_covers_both_personalities():
    report = run_traced(fig="fig2", n_ops=80)
    assert set(report.runs) == {"kv-ssd", "block-ssd"}
    assert set(report.breakdowns) == {"kv-ssd", "block-ssd"}
    for personality, run in report.runs.items():
        assert run.completed_ops > 0
        breakdown = report.breakdowns[personality]
        assert breakdown.op_types()
    pids = {r.pid for r in report.collector.records()}
    assert pids == {1, 2}
    assert report.collector.process_names == {1: "kv-ssd", 2: "block-ssd"}


@lru_cache(maxsize=None)
def _scenario_report(fig):
    return run_traced(fig=fig, n_ops=40)


@pytest.mark.parametrize("fig", list(scenarios()))
def test_every_trace_scenario_finishes_clean_and_tiles(fig):
    """Every shipped scenario (fig4's split blob included) finishes on both
    personalities and its op components still tile the measured latency."""
    report = _scenario_report(fig)
    for personality in PERSONALITIES:
        run = report.runs[personality]
        assert (run.completed_ops, run.failed_ops) == (40, 0)
        breakdown = report.breakdowns[personality]
        assert breakdown.op_types()
        for op in breakdown.op_types():
            assert sum(breakdown.mean_components_us(op).values()) == (
                pytest.approx(breakdown.mean_total_us(op))
            )


#: sha256 over every record of three 40-op scenarios on both personalities,
#: taken with ``with span.phase(...)`` blocks before marks replaced them.
#: One stream per track (the unit a timeline shows), each in collector
#: order.  What is *not* pinned is how same-timestamp records of different
#: tracks interleave: an op's last phase record is now appended by
#: ``finish``, after the driver's completion instant instead of before it.
SPAN_DIGESTS = {
    "fig2": "06992f3761af2060977409c95b60e2136b8488ec8a14cfd55931c0cad8e21b7b",
    "fig4": "47da6c340bb8b7543f1697593641797600c97af23c2800be4021a447503e6400",
    "fig6": "eb26cf68fe3f92e431c4d907f5e96c65639550bfee4d9a22080b699381163c71",
}


@pytest.mark.parametrize("fig", sorted(SPAN_DIGESTS))
def test_span_records_are_the_phase_context_managers_own(fig):
    """fig2 (depth 1), fig4 (split blobs, multi-fragment ``all_of`` reads)
    and fig6 (GC under updates): track, name, category, start and duration
    of every record, and every op's components, bit for bit."""
    digest = hashlib.sha256()
    records = _scenario_report(fig).collector.records()
    for r in sorted(records, key=lambda r: (r.pid, r.track)):
        parts = [r.pid, r.track, r.name, r.cat, repr(r.ts), repr(r.dur)]
        if r.cat == "op":
            parts.append(
                [(k, repr(v)) for k, v in r.args["components"].items()]
            )
        digest.update(repr(parts).encode())
    assert digest.hexdigest() == SPAN_DIGESTS[fig]


def test_run_traced_rejects_unknown_fig():
    with pytest.raises(ConfigurationError):
        run_traced(fig="fig99")


def test_cli_trace_command_writes_perfetto_json(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "trace.json"
    exit_code = main(["trace", "--fig", "fig2", "--out", str(out)])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "kv-ssd" in captured and "block-ssd" in captured
    assert "sum us" in captured
    document = json.loads(out.read_text())
    assert document["traceEvents"]
