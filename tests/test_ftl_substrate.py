"""Unit tests for the shared FTL substrate: pools, streams, victims, buffer."""

import pytest

from repro.errors import ConfigurationError, DeviceFullError
from repro.flash.geometry import tiny_geometry
from repro.flash.nand import BlockState, FlashArray
from repro.ftl.pool import AllocationStream, FreeBlockPool
from repro.ftl.core import DeviceStats
from repro.ftl.victim import greedy_victim
from repro.ftl.writebuffer import WriteBuffer
from repro.sim.engine import Environment


def make_array():
    env = Environment()
    return env, FlashArray(env, tiny_geometry(), DeviceStats())


# -- FreeBlockPool -------------------------------------------------------------


def test_pool_starts_with_all_free_blocks():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    assert len(pool) == array.geometry.total_blocks


def test_pool_pop_prefers_die():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    block = pool.pop(preferred_die=1)
    assert array.geometry.die_of_block(block) == 1


def test_pool_pop_falls_back_when_die_empty():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    per_die = array.geometry.blocks_per_die
    for _ in range(per_die):
        pool.pop(preferred_die=0)
    block = pool.pop(preferred_die=0)
    assert array.geometry.die_of_block(block) != 0


def test_pool_exhaustion_raises():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    for _ in range(array.geometry.total_blocks):
        pool.pop()
    with pytest.raises(DeviceFullError):
        pool.pop()


def test_pool_reserve_removes_specific_block():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    pool.reserve(3)
    assert len(pool) == array.geometry.total_blocks - 1
    with pytest.raises(DeviceFullError):
        pool.reserve(3)


def test_pool_push_returns_block():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    block = pool.pop()
    pool.push(block)
    assert len(pool) == array.geometry.total_blocks


# -- AllocationStream --------------------------------------------------------------


def test_stream_rotates_across_open_blocks():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    stream = AllocationStream(array, pool, width=2)
    first = stream.next_slot()
    second = stream.next_slot()
    third = stream.next_slot()
    assert first != second
    assert third == first  # rotation wraps
    assert len(stream.open_block_indices()) == 2


def test_wide_stream_spreads_across_dies():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    width = array.geometry.total_dies
    stream = AllocationStream(array, pool, width=width)
    dies = {
        array.geometry.die_of_block(stream.next_slot()) for _ in range(width)
    }
    assert len(dies) == width


def test_stream_replaces_full_blocks():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    stream = AllocationStream(array, pool, width=1)
    first = stream.next_slot()
    for _ in range(array.geometry.pages_per_block):
        array.prime_program(first, 64)
    replacement = stream.next_slot()
    assert replacement != first
    assert array.blocks[replacement].state is BlockState.OPEN


def test_stream_width_validated_and_clamped():
    _env, array = make_array()
    pool = FreeBlockPool(array)
    with pytest.raises(ConfigurationError):
        AllocationStream(array, pool, width=0)
    wide = AllocationStream(array, pool, width=9999)
    assert wide.width == array.geometry.total_dies


# -- victim selection ------------------------------------------------------------------


def close_block(array, block, valid_bytes):
    array.open_block(block)
    pages = array.geometry.pages_per_block
    per_page = valid_bytes // pages
    for page in range(pages):
        array.prime_program(block, per_page)


def test_greedy_picks_min_valid():
    _env, array = make_array()
    close_block(array, 0, 4096)
    close_block(array, 1, 1024)
    close_block(array, 2, 8192)
    assert greedy_victim(array) == 1


def test_greedy_none_when_no_closed_blocks():
    _env, array = make_array()
    assert greedy_victim(array) is None


def test_greedy_short_circuits_on_empty_block():
    _env, array = make_array()
    close_block(array, 0, 4096)
    close_block(array, 1, 1024)
    array.invalidate(1, 1024)
    assert greedy_victim(array) == 1


# -- write buffer -------------------------------------------------------------------------


def test_write_buffer_blocks_when_full():
    env = Environment()
    stats = DeviceStats()
    buffer = WriteBuffer(env, 1000, stats)
    admitted = []

    def writer(env, nbytes, tag):
        yield from buffer.admit(nbytes)
        admitted.append((tag, env.now))

    env.process(writer(env, 800, "a"))
    env.process(writer(env, 800, "b"))

    def drainer(env):
        yield env.timeout(30.0)
        buffer.drain(800)

    env.process(drainer(env))
    env.run()
    assert admitted == [("a", 0.0), ("b", 30.0)]
    assert stats.buffer_stall_us == pytest.approx(30.0)


def test_write_buffer_oversized_request_chunks():
    env = Environment()
    buffer = WriteBuffer(env, 1000, DeviceStats())
    done = []

    def writer(env):
        yield from buffer.admit(2500)
        done.append(env.now)
        buffer.drain(500)

    def drainer(env):
        for _ in range(2):
            yield env.timeout(10.0)
            buffer.drain(1000)

    env.process(writer(env))
    env.process(drainer(env))
    env.run()
    assert done  # completed despite exceeding buffer capacity
    assert buffer.occupied_bytes == 0  # 2500 admitted, 2500 drained


def test_write_buffer_occupancy_accounting():
    env = Environment()
    buffer = WriteBuffer(env, 1000, DeviceStats())

    def writer(env):
        yield from buffer.admit(300)

    process = env.process(writer(env))
    env.run_until_complete(process)
    assert buffer.occupied_bytes == 300
    buffer.drain(300)
    assert buffer.occupied_bytes == 0
