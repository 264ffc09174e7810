"""Fault-injection and recovery-path tests (the error-path harness).

Scheduled faults make each recovery path deterministic: a read-retry
sequence, a program-fail reallocation, block retirement, and read-only
degradation each fire exactly where the test puts them.  The statistical
model's determinism is locked by same-seed replay: identical seeds must
produce identical ``DeviceStats`` and identical trace span counts.
"""

import dataclasses

import pytest

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.core.experiment import build_block_rig, build_kv_rig, lab_geometry
from repro.errors import (
    ConfigurationError,
    DeviceReadOnlyError,
    UncorrectableReadError,
)
from repro.faults.model import (
    MAX_READ_RETRIES,
    READ_OK,
    READ_RETRY_BACKOFF_US,
    FaultConfig,
    FaultInjector,
    ReadResult,
)
from repro.faults.run import fault_profile
from repro.flash.geometry import Geometry
from repro.flash.timing import READ_US
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import WorkloadSpec, generate_operations
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Environment
from repro.trace.tracer import TraceCollector, TraceConfig, Tracer
from repro.units import KIB


def small_geometry(blocks_per_plane=16):
    return Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )


def make_kv(injector=None, blocks_per_plane=16, **config_kwargs):
    env = Environment()
    ssd = KVSSD(env, small_geometry(blocks_per_plane),
                config=KVSSDConfig(**config_kwargs), faults=injector)
    return env, ssd


def make_block(injector=None, blocks_per_plane=16, **config_kwargs):
    env = Environment()
    ssd = BlockSSD(env, small_geometry(blocks_per_plane),
                   config=BlockSSDConfig(**config_kwargs), faults=injector)
    return env, ssd


def run(env, generator, limit_delta=600e6):
    process = env.process(generator)
    return env.run_until_complete(process, limit=env.now + limit_delta)


def settle(env, delta_us=100_000.0):
    """Let background workers (flush, GC, retirement) make progress."""
    env.run(until=env.now + delta_us)


KEY = b"fault-key-000001"


# -- injector unit behavior ----------------------------------------------------


def test_fault_config_validation():
    with pytest.raises(ConfigurationError):
        FaultConfig(read_corrected_prob=1.5)
    assert not FaultConfig().statistical
    assert FaultConfig(program_fail_prob=0.1).statistical


def test_schedule_rejects_unknown_kind():
    injector = FaultInjector()
    with pytest.raises(ConfigurationError):
        injector.schedule("cosmic_ray")
    with pytest.raises(ConfigurationError):
        injector.schedule("program_fail", count=0)


def test_scheduled_read_fault_pins_until_finished():
    injector = FaultInjector()
    injector.schedule("read_uncorrectable")
    # Attempt 0 decides and pins; retries keep failing forever.
    assert injector.read_attempt(3, 7, 0) is False
    for attempt in range(1, 6):
        assert injector.read_attempt(3, 7, attempt) is False
    # Other pages are unaffected while the pin is live.
    assert injector.read_attempt(3, 8, 0) is True
    injector.finish_read(3, 7)
    assert injector.read_attempt(3, 7, 0) is True


def test_scheduled_corrected_fault_clears_after_one_retry():
    injector = FaultInjector()
    injector.schedule("read_corrected")
    assert injector.read_attempt(1, 1, 0) is False
    assert injector.read_attempt(1, 1, 1) is True
    assert injector.injected == {"read_corrected": 1}


def test_schedule_block_filter_only_matches_target():
    injector = FaultInjector()
    injector.schedule("program_fail", block=5)
    assert injector.program_fails(3) is False
    assert injector.pending_scheduled() == 1
    assert injector.program_fails(5) is True
    assert injector.pending_scheduled() == 0


def test_bad_block_is_permanent():
    injector = FaultInjector()
    injector.schedule("bad_block", block=2)
    assert injector.program_fails(2) is True
    assert injector.is_bad(2)
    # Every later program and erase on the block fails without schedules.
    assert injector.program_fails(2) is True
    assert injector.erase_fails(2) is True
    assert injector.program_fails(4) is False


def test_read_result_flags():
    assert READ_OK.ok and not READ_OK.corrected
    assert ReadResult(ok=True, retries=2).corrected
    assert ReadResult(ok=False, retries=3).uncorrectable


# -- read-retry recovery -------------------------------------------------------


def test_scheduled_corrected_read_retries_then_succeeds():
    injector = FaultInjector()
    env, ssd = make_kv(injector)
    run(env, ssd.store(KEY, 4096))
    settle(env)  # flush to flash so the retrieve reads media

    injector.schedule("read_corrected")
    assert run(env, ssd.retrieve(KEY)) == 4096
    assert ssd.stats.read_retries == 1
    assert ssd.stats.corrected_reads == 1
    assert ssd.stats.uncorrectable_reads == 0
    assert ssd.stats.recovery_us > 0.0


def test_scheduled_uncorrectable_read_runs_exactly_one_retry_sequence():
    injector = FaultInjector()
    env, ssd = make_kv(injector)
    run(env, ssd.store(KEY, 4096))
    settle(env)

    injector.schedule("read_uncorrectable")
    with pytest.raises(UncorrectableReadError):
        run(env, ssd.retrieve(KEY))
    # Exactly one full retry sequence: MAX_READ_RETRIES steps, no more.
    assert ssd.stats.read_retries == MAX_READ_RETRIES
    assert ssd.stats.uncorrectable_reads == 1
    assert ssd.stats.corrected_reads == 0
    assert injector.pending_scheduled() == 0
    # The pin was released with the sequence: the same page reads clean.
    assert run(env, ssd.retrieve(KEY)) == 4096
    assert ssd.stats.read_retries == MAX_READ_RETRIES


def test_retry_backoff_is_timed():
    injector = FaultInjector()
    env, ssd = make_kv(injector)
    run(env, ssd.store(KEY, 4096))
    settle(env)

    clean_started = env.now
    run(env, ssd.retrieve(KEY))
    clean_us = env.now - clean_started

    injector.schedule("read_corrected")
    faulted_started = env.now
    run(env, ssd.retrieve(KEY))
    faulted_us = env.now - faulted_started
    # One retry costs at least the first backoff step plus the re-read's
    # array sense.
    assert faulted_us - clean_us >= READ_RETRY_BACKOFF_US + READ_US


# -- program-fail reallocation and retirement ----------------------------------


def test_program_fail_reallocates_and_retires_block():
    injector = FaultInjector()
    env, ssd = make_block(injector)

    injector.schedule("program_fail")
    run(env, ssd.write(0, 32 * KIB))
    run(env, ssd.drain())
    settle(env, 500_000.0)  # GC worker drains the retire queue

    assert ssd.stats.program_fails == 1
    assert ssd.stats.reallocations == 1
    assert ssd.stats.retired_blocks == 1
    assert len(ssd.core.grown_defects) == 1
    defect = next(iter(ssd.core.grown_defects))
    assert defect in ssd.core.pool.retired
    # The data landed elsewhere and reads back fine.
    run(env, ssd.read(0, 32 * KIB))
    assert ssd.core.read_only is False


def test_retired_block_never_returns_to_pool():
    injector = FaultInjector()
    env, ssd = make_block(injector)
    injector.schedule("program_fail")
    run(env, ssd.write(0, 32 * KIB))
    run(env, ssd.drain())
    settle(env, 500_000.0)
    defect = next(iter(ssd.core.grown_defects))
    with pytest.raises(ConfigurationError):
        ssd.core.pool.push(defect)


def test_erase_fail_retires_victim():
    from repro.kvftl.blob import blobs_per_page

    injector = FaultInjector()
    env, ssd = make_kv(injector, blocks_per_plane=4)
    # Fill most of the device, then update until GC erases; the first
    # erase fails and the victim is retired instead of recycled.
    injector.schedule("erase_fail")
    scheme = KeyScheme(prefix=b"erasef", digits=10)
    per_page = blobs_per_page(scheme.key_bytes, 4096,
                              ssd.array.geometry.page_bytes, ssd.config)
    pairs = int(
        (ssd.free_block_count() - ssd.config.stream_width - 6)
        * ssd.array.geometry.pages_per_block * per_page * 0.9
    )
    ssd.fast_fill(pairs, 4096, scheme)

    def updates(count):
        for index in range(count):
            yield env.process(ssd.store(scheme.key_for(index % pairs), 4096))

    for _ in range(30):
        run(env, updates(400))
        settle(env, 2_000_000.0)
        if ssd.stats.erase_fails:
            break
    assert injector.injected.get("erase_fail", 0) == 1
    assert ssd.stats.erase_fails == 1
    assert ssd.stats.retired_blocks >= 1


# -- spare exhaustion and read-only degradation --------------------------------


def test_spare_exhaustion_makes_device_read_only_but_readable():
    injector = FaultInjector()
    env, ssd = make_block(injector, spare_block_limit=1)
    run(env, ssd.write(0, 32 * KIB))
    run(env, ssd.drain())

    # Three consecutive program fails retire three blocks — past the
    # one-block spare budget.
    injector.schedule("program_fail", count=3)
    run(env, ssd.write(32 * KIB, 32 * KIB))
    run(env, ssd.drain())
    settle(env, 1_000_000.0)

    assert ssd.stats.retired_blocks >= 2
    assert ssd.core.read_only is True
    with pytest.raises(DeviceReadOnlyError):
        run(env, ssd.write(64 * KIB, 32 * KIB))
    # Reads keep working on a read-only device.
    run(env, ssd.read(0, 32 * KIB))
    run(env, ssd.read(32 * KIB, 32 * KIB))


def test_read_only_kv_store_raises_but_retrieve_works():
    injector = FaultInjector()
    env, ssd = make_kv(injector, spare_block_limit=1)
    run(env, ssd.store(KEY, 4096))
    settle(env)

    injector.schedule("program_fail", count=3)
    run(env, ssd.store(b"fault-key-000002", 4096))
    settle(env, 1_000_000.0)

    assert ssd.core.read_only is True
    with pytest.raises(DeviceReadOnlyError):
        run(env, ssd.store(b"fault-key-000003", 4096))
    assert run(env, ssd.retrieve(KEY)) == 4096


# -- seeded determinism --------------------------------------------------------


def _measured_run(personality, seed):
    """One traced statistical-fault run; returns (stats dict, span count)."""
    tracer = Tracer(TraceConfig(), TraceCollector(1 << 18))
    fault_config = fault_profile(0.05, seed=seed)
    geometry = lab_geometry(8)
    scheme = KeyScheme(prefix=b"det-", digits=12)
    spec = WorkloadSpec(
        n_ops=200,
        op="mixed",
        population=200,
        key_scheme=scheme,
        value_bytes=4096,
        read_fraction=0.5,
        seed=13,
    )
    if personality == "kv":
        rig = build_kv_rig(geometry, tracer=tracer, fault_config=fault_config)
        rig.device.fast_fill(200, 4096, scheme)
        adapter = rig.adapter
    else:
        rig = build_block_rig(geometry, tracer=tracer,
                              fault_config=fault_config)
        rig.device.prime_sequential_fill(200)
        adapter = rig.adapter(4096)
    execute_workload(
        rig.env, adapter, generate_operations(spec),
        queue_depth=4, name="det", stop_after_us=60e6,
    )
    stats = dataclasses.asdict(rig.device.stats)
    return stats, len(tracer.collector.records())


@pytest.mark.parametrize("personality", ["kv", "block"])
def test_identical_seeds_replay_identical_stats_and_spans(personality):
    first_stats, first_spans = _measured_run(personality, seed=21)
    second_stats, second_spans = _measured_run(personality, seed=21)
    assert first_stats == second_stats
    assert first_spans == second_spans
    # The run actually exercised the fault model.
    assert first_stats["read_retries"] > 0


def test_different_seeds_diverge():
    # Not a hard guarantee for arbitrary seeds, but at a 5% rate over
    # hundreds of reads two streams virtually always differ; a failure
    # here means the seed is being ignored.
    first, _ = _measured_run("kv", seed=1)
    second, _ = _measured_run("kv", seed=2)
    assert first != second


# -- faults disabled is the bit-exact baseline ---------------------------------


def test_no_injector_runs_clean_and_counts_nothing():
    env, ssd = make_kv(None)
    run(env, ssd.store(KEY, 4096))
    settle(env)
    assert run(env, ssd.retrieve(KEY)) == 4096
    stats = ssd.stats
    assert stats.read_retries == 0
    assert stats.corrected_reads == 0
    assert stats.uncorrectable_reads == 0
    assert stats.program_fails == 0
    assert stats.erase_fails == 0
    assert stats.retired_blocks == 0
    assert stats.recovery_us == 0.0
