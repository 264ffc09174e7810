"""Unit tests for the NVMe command set and driver models."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.cpu import CpuAccountant
from repro.nvme.command import INLINE_KEY_BYTES, commands_for_key
from repro.nvme.driver import DriverCosts, KernelDeviceDriver
from repro.sim.engine import Environment


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


def make_driver(costs=None):
    env = Environment()
    cpu = CpuAccountant(env)
    driver = KernelDeviceDriver(env, cpu, costs or DriverCosts())
    return env, cpu, driver


def test_submission_path_serializes_commands():
    env, _cpu, driver = make_driver()

    def submit(env, n):
        yield from driver.submit(n, sync=False, component="test")
        return env.now

    one = env.process(submit(env, 1))
    env.run()
    first = one.value
    two = env.process(submit(env, 2))
    env.run()
    assert two.value - first == pytest.approx(2 * driver.costs.submit_us)
    assert driver.commands_submitted == 3


def test_sync_mode_charges_more_cpu():
    env, cpu_async, driver_async = make_driver()
    process = driver_async.env.process(
        driver_async.submit(1, sync=False, component="a")
    )
    driver_async.env.run_until_complete(process)
    async_cpu = cpu_async.total_busy_us

    env2, cpu_sync, driver_sync = make_driver()
    process = driver_sync.env.process(
        driver_sync.submit(1, sync=True, component="a")
    )
    driver_sync.env.run_until_complete(process)
    assert cpu_sync.total_busy_us > async_cpu


def test_completion_charges_cpu_only():
    env, cpu, driver = make_driver()
    driver.complete(3, "x")
    assert cpu.total_busy_us == pytest.approx(3 * driver.costs.cpu_complete_us)
    assert env.now == 0.0


def test_driver_rejects_zero_commands():
    env, _cpu, driver = make_driver()
    with pytest.raises(ConfigurationError):
        driver.complete(0, "x")
