"""The rig protocol: every system answers ``build_rig`` → ``prime`` →
``adapter_for`` → ``drain``, its adapter answers ``StoreAdapter``, and
the sizing helper owns the capacity formula the figures used to write
out by hand."""

import pytest

from repro.core.experiment import build_rig, lab_geometry
from repro.errors import ConfigurationError
from repro.kvbench.runner import StoreAdapter, run_phase
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec, generate_ycsb
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.population import KeyScheme
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
