"""Unit tests for the flash substrate: geometry, timing, timed array."""

import pytest

from repro.errors import AddressError, ConfigurationError, SimulationError
from repro.flash.geometry import Geometry, tiny_geometry
from repro.flash.nand import BlockState, FlashArray
from repro.flash.timing import FlashTiming
from repro.ftl.core import DeviceStats
from repro.sim.engine import Environment
from repro.units import KIB


def make_array(geometry=None, timing=None):
    env = Environment()
    array = FlashArray(
        env, geometry or tiny_geometry(), timing or FlashTiming(), DeviceStats()
    )
    return env, array


# -- geometry -----------------------------------------------------------------


def test_geometry_derived_quantities():
    geo = Geometry(
        channels=2,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=4,
        pages_per_block=8,
        page_bytes=4 * KIB,
    )
    assert geo.total_dies == 4
    assert geo.blocks_per_die == 8
    assert geo.total_blocks == 32
    assert geo.total_pages == 256
    assert geo.block_bytes == 32 * KIB
    assert geo.capacity_bytes == 256 * 4 * KIB


def test_geometry_block_striping_rotates_dies():
    geo = tiny_geometry()
    dies = [geo.die_of_block(i) for i in range(geo.total_dies * 2)]
    assert dies[: geo.total_dies] == list(range(geo.total_dies))
    assert dies[geo.total_dies:] == list(range(geo.total_dies))


def test_geometry_validates_fields():
    with pytest.raises(ConfigurationError):
        Geometry(channels=0)


def test_geometry_address_checks():
    geo = tiny_geometry()
    with pytest.raises(AddressError):
        geo.check_block(geo.total_blocks)
    with pytest.raises(AddressError):
        geo.check_page(0, geo.pages_per_block)


# -- timing --------------------------------------------------------------------


def test_transfer_time_scales_with_bytes():
    timing = FlashTiming()
    small = timing.transfer_us(4 * KIB)
    large = timing.transfer_us(32 * KIB)
    assert large > small
    assert large - timing.command_overhead_us == pytest.approx(
        (32 * KIB) / timing.channel_bytes_per_us
    )


def test_timing_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        FlashTiming(read_us=0.0)


# -- timed array ------------------------------------------------------------------


def test_program_requires_open_block():
    env, array = make_array()

    def proc(env):
        yield from array.program(0, array.geometry.page_bytes, 1024)

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run_until_complete(process)


def test_program_then_read_roundtrip_timing():
    env, array = make_array()
    array.open_block(0)

    def proc(env):
        page = yield from array.program(0, array.geometry.page_bytes, 2048)
        programmed_at = env.now
        yield from array.read(0, page, 1024)
        return programmed_at, env.now

    process = env.process(proc(env))
    env.run()
    programmed_at, read_done = process.value
    timing = array.timing
    assert programmed_at == pytest.approx(
        timing.transfer_us(array.geometry.page_bytes) + timing.program_us
    )
    assert read_done - programmed_at == pytest.approx(
        timing.read_us + timing.transfer_us(1024)
    )
    assert array.stats.flash_programs == 1
    assert array.stats.flash_reads == 1


def test_block_closes_when_full():
    env, array = make_array()
    array.open_block(0)
    for _ in range(array.geometry.pages_per_block):
        array.prime_program(0, 512)
    assert array.blocks[0].state is BlockState.CLOSED
    with pytest.raises(SimulationError):
        array.prime_program(0, 512)


def test_read_of_unprogrammed_page_rejected():
    env, array = make_array()
    array.open_block(0)
    array.prime_program(0, 512)

    def proc(env):
        yield from array.read(0, 5, 512)

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run_until_complete(process)


def test_invalidate_bounds():
    env, array = make_array()
    array.open_block(0)
    array.prime_program(0, 1000)
    array.invalidate(0, 400)
    assert array.blocks[0].valid_bytes == 600
    with pytest.raises(SimulationError):
        array.invalidate(0, 700)


def test_erase_requires_zero_valid_bytes():
    env, array = make_array()
    array.open_block(0)
    array.prime_program(0, 512)

    def proc(env):
        yield from array.erase(0)

    process = env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run_until_complete(process)


def test_erase_returns_block_to_free():
    env, array = make_array()
    array.open_block(0)
    array.prime_program(0, 512)
    array.invalidate(0, 512)

    def proc(env):
        yield from array.erase(0)

    process = env.process(proc(env))
    env.run_until_complete(process)
    assert array.blocks[0].state is BlockState.FREE
    assert array.blocks[0].erase_count == 1
    assert array.stats.flash_erases == 1


def test_parallel_programs_on_distinct_dies_overlap():
    env, array = make_array()
    geo = array.geometry
    # Blocks 0 and 1 sit on different dies (striped numbering).
    assert geo.die_of_block(0) != geo.die_of_block(1)
    array.open_block(0)
    array.open_block(1)

    def program(block):
        yield from array.program(block, geo.page_bytes, 512)

    start = env.now
    procs = [env.process(program(0)), env.process(program(1))]

    def waiter(env):
        yield env.all_of(procs)
        return env.now

    done = env.process(waiter(env))
    env.run()
    elapsed = done.value - start
    single = array.timing.transfer_us(geo.page_bytes) + array.timing.program_us
    # Same channel serializes transfers, but the programs overlap.
    assert elapsed < 2 * single


def test_same_die_programs_serialize():
    env, array = make_array()
    geo = array.geometry
    same_die_block = geo.total_dies  # striping wraps back to die 0
    assert geo.die_of_block(0) == geo.die_of_block(same_die_block)
    array.open_block(0)
    array.open_block(same_die_block)

    def program(block):
        yield from array.program(block, geo.page_bytes, 512)

    procs = [env.process(program(0)), env.process(program(same_die_block))]

    def waiter(env):
        yield env.all_of(procs)
        return env.now

    done = env.process(waiter(env))
    env.run()
    single = array.timing.transfer_us(geo.page_bytes) + array.timing.program_us
    assert done.value >= 2 * array.timing.program_us
    assert done.value >= single


def test_free_blocks_and_valid_bytes_aggregates():
    env, array = make_array()
    total = array.geometry.total_blocks
    assert array.free_blocks() == total
    array.open_block(3)
    array.prime_program(3, 999)
    assert array.free_blocks() == total - 1
    assert array.total_valid_bytes() == 999
