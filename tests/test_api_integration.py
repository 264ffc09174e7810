"""Integration tests for the host APIs and experiment rigs."""


import pytest

from repro.core.experiment import (
    build_block_rig,
    build_hash_rig,
    build_kv_rig,
    build_lsm_rig,
    build_rig,
    lab_geometry,
)
from repro.errors import (
    AddressError,
    DeviceFullError,
    UncorrectableReadError,
)
from repro.faults.model import FaultConfig
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import Pattern, WorkloadSpec, generate_operations
from repro.kvftl.blob import layout_blob
from repro.kvftl.population import KeyScheme
from repro.nvme.command import NvmeStatus, status_for_error
from repro.trace.tracer import TraceCollector, Tracer
from repro.units import KIB


def test_kv_rig_roundtrip_through_api():
    rig = build_kv_rig(lab_geometry(4))

    def session(env):
        yield env.process(rig.api.store(b"api-key-00000001", 4096))
        value = yield env.process(rig.api.retrieve(b"api-key-00000001"))
        present = yield env.process(rig.api.exist(b"api-key-00000001"))
        yield env.process(rig.api.delete(b"api-key-00000001"))
        return value, present

    value, present = rig.env.run_until_complete(
        rig.env.process(session(rig.env))
    )
    assert (value, present) == (4096, True)
    assert rig.driver.commands_submitted == 4
    assert rig.cpu.total_busy_us > 0


def test_large_key_uses_two_commands_per_op():
    rig = build_kv_rig(lab_geometry(4))
    big_key = b"k" * 64

    def session(env):
        yield env.process(rig.api.store(big_key, 1024))

    rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert rig.driver.commands_submitted == 2


def test_block_rig_rw_through_api():
    rig = build_block_rig(lab_geometry(4))

    def session(env):
        yield env.process(rig.api.write(0, 8192))
        yield env.process(rig.device.drain())
        yield env.process(rig.api.read(0, 8192))
        yield env.process(rig.api.deallocate(0, 8192))

    rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert rig.device.stats.host_reads == 1
    assert rig.device.occupied_bytes == 0


def test_rigs_are_isolated_environments():
    first = build_kv_rig(lab_geometry(4))
    second = build_kv_rig(lab_geometry(4))
    assert first.env is not second.env

    def session(env, api):
        yield env.process(api.store(b"iso-key-00000001", 100))

    first.env.run_until_complete(
        first.env.process(session(first.env, first.api))
    )
    assert first.device.live_kvps == 1
    assert second.device.live_kvps == 0
    assert second.env.now == 0.0


def test_same_workload_across_all_four_stacks():
    """Every adapter executes the same op stream without error."""
    spec = WorkloadSpec(
        n_ops=300,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=KeyScheme(prefix=b"xstk", digits=12),
        value_bytes=2 * KIB,
        seed=3,
    )
    read_spec = WorkloadSpec(
        n_ops=150,
        op="read",
        pattern=Pattern.UNIFORM,
        population=300,
        key_scheme=KeyScheme(prefix=b"xstk", digits=12),
        value_bytes=2 * KIB,
        seed=5,
    )
    geometry = lab_geometry(8)
    stacks = {
        "kv": build_kv_rig(geometry),
        "lsm": build_lsm_rig(geometry),
        "hash": build_hash_rig(geometry),
    }
    results = {}
    for name, rig in stacks.items():
        inserted = execute_workload(
            rig.env, rig.adapter, generate_operations(spec), queue_depth=4
        )
        read = execute_workload(
            rig.env, rig.adapter, generate_operations(read_spec), queue_depth=4
        )
        assert inserted.completed_ops == 300, name
        assert read.completed_ops == 150, name
        results[name] = (inserted.latency.mean(), read.latency.mean())
    block_rig = build_block_rig(geometry)
    adapter = block_rig.adapter(2 * KIB)
    inserted = execute_workload(
        block_rig.env, adapter, generate_operations(spec), queue_depth=4
    )
    assert inserted.completed_ops == 300
    # The RQ1 ordering holds even at this tiny scale: the LSM stack burns
    # far more host CPU than the KV stack.  (Its *latency* advantage only
    # erodes under sustained load, which Fig. 2's bench exercises.)
    assert (
        stacks["lsm"].cpu.total_busy_us > 3 * stacks["kv"].cpu.total_busy_us
    )


def test_failed_reads_counted_not_raised_by_runner():
    rig = build_kv_rig(lab_geometry(4))
    spec = WorkloadSpec(
        n_ops=50,
        op="read",
        pattern=Pattern.UNIFORM,
        population=50,
        key_scheme=KeyScheme(prefix=b"none", digits=12),
        value_bytes=0,
        seed=11,
    )
    result = execute_workload(
        rig.env, rig.adapter, generate_operations(spec), queue_depth=2
    )
    assert result.completed_ops == 0
    assert result.failed_ops == 50  # nothing was ever stored


def test_device_full_propagates_through_kv_api_with_status():
    """A full device surfaces as DeviceFullError -> CAPACITY_EXCEEDED."""
    # A fat over-provisioning fraction makes the byte-capacity bound bind
    # well before physical pages run out, so the refusal is exact: fill
    # to capacity untimed, then the very next new pair must be rejected.
    from repro.kvftl.config import KVSSDConfig

    rig = build_kv_rig(lab_geometry(4), config=KVSSDConfig(overprovision=0.4))
    device = rig.device
    scheme = KeyScheme(prefix=b"full", digits=12)
    footprint = layout_blob(
        scheme.key_bytes, 4096, device.array.geometry.page_bytes,
        device.config,
    ).footprint_bytes
    device.fast_fill(
        (device.user_capacity_bytes - device.stats.device_bytes) // footprint,
        4096, scheme,
    )

    def session(env):
        yield env.process(rig.api.store(b"one-pair-too-many", 4096))

    with pytest.raises(DeviceFullError) as excinfo:
        rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert excinfo.value.nvme_status == NvmeStatus.CAPACITY_EXCEEDED
    assert rig.driver.commands_failed == 1
    assert rig.driver.last_status == NvmeStatus.CAPACITY_EXCEEDED


def test_device_full_propagates_through_block_api_with_status(monkeypatch):
    """The block wrapper tags and accounts DeviceFullError identically."""
    rig = build_block_rig(lab_geometry(4))

    def full_write(offset, nbytes, span=None):
        raise DeviceFullError("no free blocks available")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(rig.device, "write", full_write)

    def session(env):
        yield env.process(rig.api.write(0, 8192))

    with pytest.raises(DeviceFullError) as excinfo:
        rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert excinfo.value.nvme_status == NvmeStatus.CAPACITY_EXCEEDED
    assert rig.driver.commands_failed == 1
    assert rig.driver.last_status == NvmeStatus.CAPACITY_EXCEEDED


def test_out_of_range_block_read_maps_to_lba_status():
    rig = build_block_rig(lab_geometry(4))

    def session(env):
        yield env.process(
            rig.api.read(rig.device.user_capacity_bytes, 8192)
        )

    with pytest.raises(AddressError) as excinfo:
        rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert excinfo.value.nvme_status == NvmeStatus.LBA_OUT_OF_RANGE
    assert rig.driver.commands_failed == 1


def test_uncorrectable_read_surfaces_through_kv_api():
    rig = build_kv_rig(lab_geometry(4), fault_config=FaultConfig())
    key = b"api-media-error1"

    def store(env):
        yield env.process(rig.api.store(key, 4096))

    rig.env.run_until_complete(rig.env.process(store(rig.env)))
    rig.env.run(until=rig.env.now + 100_000.0)  # flush to flash
    rig.device.array.faults.schedule("read_uncorrectable")

    def retrieve(env):
        yield env.process(rig.api.retrieve(key))

    with pytest.raises(UncorrectableReadError) as excinfo:
        rig.env.run_until_complete(rig.env.process(retrieve(rig.env)))
    assert excinfo.value.nvme_status == NvmeStatus.UNRECOVERED_READ_ERROR
    assert rig.driver.last_status == NvmeStatus.UNRECOVERED_READ_ERROR
    assert rig.device.stats.uncorrectable_reads == 1


def test_sync_api_slower_and_hungrier_than_async():
    async_rig = build_kv_rig(lab_geometry(4), sync=False)
    sync_rig = build_kv_rig(lab_geometry(4), sync=True)

    def one_store(rig):
        def session(env):
            started = env.now
            yield env.process(rig.api.store(b"sync-key-0000001", 1024))
            return env.now - started

        return rig.env.run_until_complete(rig.env.process(session(rig.env)))

    one_store(async_rig)
    one_store(sync_rig)
    assert sync_rig.cpu.total_busy_us > async_rig.cpu.total_busy_us


_KEY = b"api-key-00000001"
#: (system, API method, arguments): every host command there is.
API_METHODS = [
    ("kvssd", "store", (_KEY, 4096)),
    ("kvssd", "retrieve", (_KEY,)),
    ("kvssd", "delete", (_KEY,)),
    ("kvssd", "exist", (_KEY,)),
    ("kvssd", "iterate", (_KEY[:4], 8)),
    ("block", "write", (0, 8192)),
    ("block", "read", (0, 8192)),
    ("block", "deallocate", (0, 8192)),
]


@pytest.mark.parametrize("system, method, args", API_METHODS)
def test_every_api_method_is_one_command_envelope(
    system, method, args, monkeypatch
):
    """Success and failure cost and account alike through all eight."""
    tracer = Tracer(collector=TraceCollector(256))
    rig = build_rig(system, lab_geometry(4), tracer=tracer)
    api, driver, cpu = rig.api, rig.driver, rig.cpu

    def run(process):
        return rig.env.run_until_complete(rig.env.process(process))

    def observed():
        spans = [r for r in tracer.collector.records()
                 if r.cat == "op" and r.name == method]
        return (cpu.report().by_component[api.component],
                driver.commands_submitted, driver.commands_completed,
                driver.commands_failed, len(spans))

    run(api.store(_KEY, 4096) if system == "kvssd" else api.write(0, 8192))
    before = observed()
    run(getattr(api, method)(*args))
    # 1.0 library + 2.0 async submit + 1.0 completion: the parent's charge.
    assert [b - a for a, b in zip(before, observed())] == [4.0, 1, 1, 0, 1]
    assert driver.last_status == NvmeStatus.SUCCESS

    def broken(*args, **kwargs):
        raise DeviceFullError("planted")
        yield  # pragma: no cover - makes this a generator

    monkeypatch.setattr(rig.device, method, broken)
    with pytest.raises(DeviceFullError) as excinfo:
        run(getattr(api, method)(*args))
    # One error completion, at a success's CPU; the span finished once.
    assert [b - a for a, b in zip(before, observed())] == [8.0, 2, 2, 1, 2]
    assert excinfo.value.nvme_status == status_for_error(excinfo.value)
    assert driver.last_status == NvmeStatus.CAPACITY_EXCEEDED
