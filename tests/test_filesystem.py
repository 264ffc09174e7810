"""Unit tests for the extent-based file system."""

import pytest

from repro.api.block import BlockDeviceAPI
from repro.blockftl.device import BlockSSD
from repro.errors import ConfigurationError, DeviceFullError
from repro.flash.geometry import Geometry
from repro.hostkv.fs.ext4 import SimFileSystem
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment
from repro.units import KIB, MIB


def make_fs(blocks_per_plane=16):
    geometry = Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )
    env = Environment()
    device = BlockSSD(env, geometry)
    driver = KernelDeviceDriver(env, CpuAccountant())
    api = BlockDeviceAPI(env, device, driver)
    return env, device, SimFileSystem(env, api)


def run(env, generator):
    process = env.process(generator)
    return env.run_until_complete(process, limit=env.now + 600e6)


def test_create_append_read_lifecycle():
    env, _device, fs = make_fs()

    def proc(env):
        yield env.process(fs.create("a.sst"))
        yield env.process(fs.append("a.sst", 100 * KIB))
        yield env.process(fs.read("a.sst", 0, 4 * KIB))
        yield env.process(fs.read("a.sst", 96 * KIB, 4 * KIB))

    run(env, proc(env))
    assert fs.exists("a.sst")
    assert fs.size("a.sst") == 100 * KIB
    assert fs.files() == ["a.sst"]


def test_duplicate_create_rejected():
    env, _device, fs = make_fs()

    def proc(env):
        yield env.process(fs.create("x"))

    run(env, proc(env))
    with pytest.raises(ConfigurationError):
        run(env, fs.create("x"))


def test_read_past_eof_rejected():
    env, _device, fs = make_fs()

    def proc(env):
        yield env.process(fs.create("x"))
        yield env.process(fs.append("x", 8 * KIB))

    run(env, proc(env))
    with pytest.raises(ConfigurationError):
        run(env, fs.read("x", 4 * KIB, 8 * KIB))


def test_unlink_frees_space_and_trims():
    env, device, fs = make_fs()
    free_before = fs.free_bytes()

    def proc(env):
        yield env.process(fs.create("big"))
        yield env.process(fs.append("big", 2 * MIB))
        yield env.process(device.drain())
        occupied = device.occupied_bytes
        yield env.process(fs.unlink("big"))
        return occupied

    occupied_during = run(env, proc(env))
    assert occupied_during >= 2 * MIB
    assert fs.free_bytes() == free_before
    assert not fs.exists("big")
    # TRIM reached the device: journal writes remain, file data gone.
    assert device.occupied_bytes < 64 * KIB


def test_allocation_exhaustion_raises_and_rolls_back():
    env, _device, fs = make_fs(blocks_per_plane=2)
    free_before = fs.free_bytes()

    def proc(env):
        yield env.process(fs.create("huge"))
        yield env.process(fs.append("huge", free_before + MIB))

    with pytest.raises(DeviceFullError):
        run(env, proc(env))
    assert fs.free_bytes() == free_before  # partial allocation rolled back


def test_free_list_coalesces():
    env, _device, fs = make_fs()

    def proc(env):
        for name in ("a", "b", "c"):
            yield env.process(fs.create(name))
            yield env.process(fs.append(name, 64 * KIB))
        yield env.process(fs.unlink("a"))
        yield env.process(fs.unlink("b"))
        yield env.process(fs.unlink("c"))

    run(env, proc(env))
    # Everything released: the free list should be one coalesced run.
    assert len(fs._free) == 1


def test_journal_writes_accumulate():
    env, _device, fs = make_fs()

    def proc(env):
        yield env.process(fs.create("j"))
        yield env.process(fs.append("j", 4 * KIB))
        yield env.process(fs.unlink("j"))

    run(env, proc(env))
    assert fs.journal_writes == 3
    assert fs.metadata_ops == 3


def test_prime_file_readable_without_io():
    env, device, fs = make_fs()
    fs.prime_file("primed.sst", 256 * KIB)
    assert fs.size("primed.sst") == 256 * KIB
    assert device.occupied_bytes >= 256 * KIB

    def proc(env):
        yield env.process(fs.read("primed.sst", 128 * KIB, 4 * KIB))

    run(env, proc(env))


def test_multi_extent_reads_cover_whole_file():
    env, _device, fs = make_fs()

    def proc(env):
        yield env.process(fs.create("frag"))
        # Interleave with another file to fragment the allocations.
        yield env.process(fs.create("other"))
        for _ in range(4):
            yield env.process(fs.append("frag", 32 * KIB))
            yield env.process(fs.append("other", 32 * KIB))
        yield env.process(fs.read("frag", 0, 128 * KIB))

    run(env, proc(env))
    assert fs.size("frag") == 128 * KIB
