"""Unit tests for the NVMe command set and driver models."""

import pytest

from repro.api.kvs import KVStoreAPI
from repro.core.experiment import build_kv_rig, lab_geometry
from repro.errors import ConfigurationError, InvalidKeyError
from repro.metrics.cpu import CpuAccountant
from repro.nvme.command import INLINE_KEY_BYTES, NvmeStatus, commands_for_key
from repro.nvme.driver import (
    CPU_ASYNC_US,
    CPU_COMPLETE_US,
    CPU_SYNC_EXTRA_US,
    SUBMIT_US,
    KernelDeviceDriver,
)
from repro.sim.engine import Environment
from repro.trace.tracer import Tracer


# -- command set ------------------------------------------------------------


def test_inline_key_fits_one_command():
    assert commands_for_key(4) == 1
    assert commands_for_key(INLINE_KEY_BYTES) == 1


def test_large_key_needs_second_command():
    # The Fig. 8 mechanism: >16 B keys ride a second command.
    assert commands_for_key(INLINE_KEY_BYTES + 1) == 2
    assert commands_for_key(255) == 2


def test_commands_for_key_rejects_empty():
    with pytest.raises(ConfigurationError):
        commands_for_key(0)


# -- driver --------------------------------------------------------------------
#
# A command's submission and success completion run in the command
# envelope, so the driver's steps are driven through ``KVStoreAPI``.


class _InstantDevice:
    """A KV device whose ``store`` finishes the moment it starts, so a
    command's time is its host side alone."""

    tracer = Tracer.disabled()

    def store(self, key, value_bytes, ncommands=1):
        return None
        yield  # pragma: no cover - makes this a generator


def make_api(sync=False):
    env = Environment()
    cpu = CpuAccountant()
    driver = KernelDeviceDriver(env, cpu)
    return env, cpu, driver, KVStoreAPI(env, _InstantDevice(), driver, sync=sync)


def test_submission_path_serializes_commands():
    env, _cpu, driver, api = make_api()

    def store(key):
        yield from api.store(key, 4096)
        return env.now

    one = env.process(store(b"k" * INLINE_KEY_BYTES))
    env.run()
    first = one.value
    assert first == SUBMIT_US
    two = env.process(store(b"k" * (INLINE_KEY_BYTES + 1)))
    env.run()
    assert two.value - first == 2 * SUBMIT_US
    # Concurrent commands queue for the one slot, entry by entry.
    both = [env.process(store(b"k")), env.process(store(b"k"))]
    env.run()
    assert [p.value - two.value for p in both] == [SUBMIT_US, 2 * SUBMIT_US]
    assert driver.commands_submitted == 5


def test_sync_mode_charges_more_cpu():
    def one_store(sync):
        env, cpu, _driver, api = make_api(sync)
        env.run_until_complete(env.process(api.store(b"k", 4096)))
        return cpu.total_busy_us

    assert one_store(sync=True) > one_store(sync=False)


def test_completion_charges_cpu_only():
    env, cpu, driver, api = make_api()
    env.run_until_complete(env.process(api.store(b"k", 4096)))
    # The success completion took no time beyond the one entry.
    assert env.now == SUBMIT_US
    before = cpu.total_busy_us
    driver.complete_error(NvmeStatus.KV_KEY_NOT_EXIST)
    assert cpu.total_busy_us - before == CPU_COMPLETE_US
    assert env.now == SUBMIT_US
    assert (driver.commands_completed, driver.commands_failed) == (2, 1)
    assert driver.last_status == NvmeStatus.KV_KEY_NOT_EXIST


def test_driver_rejects_zero_commands():
    """No command goes out in zero entries: an empty key takes its one,
    and judging the key is the device's (this one accepts anything)."""
    env, cpu, driver, api = make_api()
    env.run_until_complete(env.process(api.store(b"", 4096)))
    assert (driver.commands_submitted, driver.commands_completed) == (1, 1)
    assert cpu.total_busy_us == (
        KVStoreAPI.LIBRARY_CPU_US + CPU_ASYNC_US + CPU_COMPLETE_US
    )


@pytest.mark.parametrize("key, entries", [(b"", 1), (b"k" * 256, 2)],
                         ids=["empty", "256B"])
def test_an_invalid_key_fails_at_the_device_with_its_status(key, entries):
    """A key the device refuses fails as a device error carrying the
    completion status, after its entries went out and with one error
    completion counted — the empty key as the oversized one."""
    rig = build_kv_rig(lab_geometry(4))
    with pytest.raises(InvalidKeyError) as failed:
        rig.env.run_until_complete(rig.env.process(rig.api.store(key, 4096)))
    assert failed.value.nvme_status == NvmeStatus.KV_INVALID_KEY_SIZE
    driver = rig.driver
    assert (driver.commands_submitted, driver.commands_completed,
            driver.commands_failed) == (entries, 1, 1)
    rig.close()


@pytest.mark.parametrize("sync", [False, True])
@pytest.mark.parametrize("key_bytes, entries", [(16, 1), (17, 2)])
def test_one_command_charges_its_cpu_once_and_takes_its_entries(
    key_bytes, entries, sync
):
    """The arithmetic of one command on a real KV device, exactly: a
    charge dropped or doubled anywhere on the host side moves it."""
    rig = build_kv_rig(lab_geometry(4), sync=sync)
    slots = rig.driver.submission_path
    rig.env.run_until_complete(
        rig.env.process(rig.api.store(b"k" * key_bytes, 4096))
    )
    per_entry = CPU_ASYNC_US + (CPU_SYNC_EXTRA_US if sync else 0.0)
    assert rig.cpu.total_busy_us == (
        KVStoreAPI.LIBRARY_CPU_US + entries * per_entry + CPU_COMPLETE_US
    )
    assert slots.busy_slot_us() == entries * SUBMIT_US
    assert (rig.driver.commands_submitted, rig.driver.commands_completed) == (
        entries, 1
    )
