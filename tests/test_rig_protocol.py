"""The rig protocol: every system answers ``build_rig`` → ``prime`` →
``adapter_for`` → ``drain`` → ``close``, its adapter answers
``StoreAdapter``, and the sizing helper owns the capacity formula the
figures used to write out by hand."""

import gc
import weakref

import pytest

from repro.core.experiment import build_rig, lab_geometry
from repro.errors import ConfigurationError, SimulationError
from repro.kvbench.runner import StoreAdapter, run_phase
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec, generate_ycsb
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Process
from repro.sim.signal import Signal
from repro.units import KIB

SCHEME = KeyScheme(prefix=b"fill", digits=12)


@pytest.mark.parametrize("system", ["kvssd", "block", "rocksdb", "aerospike"])
def test_primed_pairs_read_back_and_the_rig_drains(system):
    pairs, size = 300, 1000
    rig = build_rig(system, lab_geometry(8))
    rig.prime(pairs, size, SCHEME)
    reads = WorkloadSpec(
        n_ops=pairs, op="read", pattern=Pattern.SEQUENTIAL, population=pairs,
        key_scheme=SCHEME, value_bytes=size,
    )
    run = run_phase(
        rig, f"protocol.{system}", reads, 4, rig.adapter_for(size)
    )  # drain=True: returning at all is the "drain() terminates" half
    assert (run.completed_ops, run.failed_ops) == (pairs, 0)


def _short_phase(rig, drain):
    """200 mixed ops at QD4 over 300 primed 1000 B pairs."""
    rig.prime(300, 1000, SCHEME)
    mixed = WorkloadSpec(
        n_ops=200, op="mixed", population=300, key_scheme=SCHEME,
        value_bytes=1000, read_fraction=0.5, seed=7,
    )
    run = run_phase(rig, "lifetime", mixed, 4, rig.adapter_for(1000),
                    drain=drain)
    assert (run.completed_ops, run.failed_ops) == (200, 0)


@pytest.mark.parametrize("drain", [True, False], ids=["drained", "in-flight"])
@pytest.mark.parametrize("system", ["kvssd", "block", "rocksdb", "aerospike"])
def test_leaving_the_with_block_frees_the_stack_by_reference_counting(
    system, drain
):
    """With the cyclic collector off from build to end, the device, its
    flash array (and the host store) die with the last reference to the
    rig: ``close`` ended every background worker — the merge engine's
    holds only the array — and whatever was still queued (an undrained
    phase leaves flushes in flight), and cut the core's link back to its
    personality."""
    gc.collect()
    gc.disable()
    try:
        with build_rig(system, lab_geometry(8)) as rig:
            _short_phase(rig, drain)
            parts = [weakref.ref(rig.device), weakref.ref(rig.device.array)]
            if hasattr(rig, "store"):
                parts.append(weakref.ref(rig.store))
        assert rig.env.closed and rig.env.queued_events == 0
        del rig
        assert [part() for part in parts] == [None] * len(parts)
    finally:
        gc.enable()


@pytest.mark.parametrize("system", ["kvssd", "block", "rocksdb", "aerospike"])
def test_a_closed_rig_refuses_to_prime_drain_or_run(system):
    rig = build_rig(system, lab_geometry(8))
    _short_phase(rig, drain=True)
    rig.close()
    events = rig.env.processed_events
    rig.close()  # a second close does nothing
    assert (rig.env.closed, rig.env.processed_events) == (True, events)
    reads = WorkloadSpec(
        n_ops=10, op="read", pattern=Pattern.SEQUENTIAL, population=300,
        key_scheme=SCHEME, value_bytes=1000,
    )
    with pytest.raises(SimulationError, match="closed"):
        rig.prime(10, 1000, SCHEME)
    with pytest.raises(SimulationError, match="closed"):
        rig.drain()
    with pytest.raises(SimulationError, match="closed"):
        run_phase(rig, "after", reads, 1, rig.adapter_for(1000))
    assert rig.env.processed_events == events


@pytest.mark.parametrize("system", ["kvssd", "rocksdb", "aerospike"])
def test_an_idle_rig_holds_one_wait_per_parked_worker(system):
    """A second of idle simulated time, 500 rounds of a 2 ms poll, leaves
    no signal holding more waiters than the rig has parked workers, nor
    all signals together more live ones: a waiter whose deadline fired
    has left the signal (the parent kept 501 stale waits on ``gcwake``)."""
    with build_rig(system, lab_geometry(8)) as rig:
        rig.env.run(until=1e6)
        objects = gc.get_objects()
        signals = [o for o in objects
                   if isinstance(o, Signal) and o.env is rig.env]
        workers = [o for o in objects if isinstance(o, Process)
                   and o.env is rig.env and not o.triggered]
        assert signals and workers
        held = {signal.name: len(signal._waiters) for signal in signals}
        waiting = {signal.name: signal.waiting for signal in signals}
        assert max(held.values()) <= len(workers), held
        assert sum(waiting.values()) <= len(workers), waiting


#: Which optional member of the protocol each stack has.
COMPOSES_WITH = {"kvssd": "iterate", "block": None, "rocksdb": "scan",
                 "aerospike": None}
#: (scans_run, rmws_run, completed_ops) per YCSB workload, 120 ops at
#: seed 5: the parent's numbers, the same on every stack.
YCSB_RUNS = {"A": (0, 0, 120), "E": (109, 0, 120), "F": (0, 60, 120)}


@pytest.mark.parametrize("system", list(COMPOSES_WITH))
def test_every_adapter_answers_the_store_adapter_protocol(system):
    rig = build_rig(system, lab_geometry(8))
    adapter = rig.adapter_for(1000)
    assert (adapter.env, adapter.device) == (rig.env, rig.device)
    assert callable(adapter.execute)
    optional = set(StoreAdapter.__annotations__) - {"env", "device"}
    assert optional == {"scan", "iterate"}
    has = {member for member in optional if callable(getattr(adapter, member))}
    assert has == {COMPOSES_WITH[system]} - {None}
    assert all(getattr(adapter, member) is None for member in optional - has)


@pytest.mark.parametrize("workload", list(YCSB_RUNS))
@pytest.mark.parametrize("system", list(COMPOSES_WITH))
def test_ycsb_composites_run_through_one_driver_on_every_stack(
    system, workload
):
    spec = YCSBSpec(workload, n_ops=120, population=300,
                    key_scheme=KeyScheme(prefix=b"user", digits=12),
                    scan_length=10, seed=5)
    rig = build_rig(system, lab_geometry(8))
    rig.prime(spec.population, spec.value_bytes, spec.key_scheme)
    driver = YCSBDriver(rig.adapter_for(spec.value_bytes), spec)
    run = run_phase(rig, f"ycsb.{system}", generate_ycsb(spec), 4, driver)
    assert run.failed_ops == 0
    assert (
        driver.scans_run, driver.rmws_run, run.completed_ops
    ) == YCSB_RUNS[workload]


def test_build_rig_rejects_unknown_systems():
    with pytest.raises(ConfigurationError, match="unknown system"):
        build_rig("optane")


def test_kv_pair_capacity_is_free_pages_times_blobs_per_page():
    rig = build_rig("kvssd", lab_geometry(8))
    device = rig.device
    geometry = device.array.geometry
    per_page = blobs_per_page(16, 4 * KIB, geometry.page_bytes, device.config)
    free = device.free_block_count()
    assert rig.pair_capacity(16, 4 * KIB) == (
        free * geometry.pages_per_block * per_page
    )
    assert rig.pair_capacity(16, 4 * KIB, reserve_blocks=32) == (
        (free - 32) * geometry.pages_per_block * per_page
    )
    # A reserve beyond the free blocks leaves room for no pair, not for a
    # negative count a fill would be sized from.
    assert rig.pair_capacity(16, 4 * KIB, reserve_blocks=free + 1000) == 0
    # The fraction scales whole pages, then packs: int(pages*f)*per_page,
    # which is not int(pages*per_page*f).
    pages = free * geometry.pages_per_block
    assert rig.pair_capacity(16, 4 * KIB, fraction=0.45) == (
        int(pages * 0.45) * per_page
    )
    # A blob that must split across pages neither co-packs nor bulk-primes.
    assert rig.pair_capacity(16, 64 * KIB) == 0


def test_block_pair_capacity_is_the_slot_count():
    rig = build_rig("block", lab_geometry(8))
    assert rig.pair_capacity(16, 4 * KIB) == rig.adapter(4 * KIB).slots
    assert rig.pair_capacity(16, 1000) == rig.adapter(1000).slots
