"""Integration tests for the hash-index store (Aerospike stand-in)."""

import pytest

from repro.errors import ConfigurationError, DeviceFullError, KeyNotFoundError
from repro.flash.geometry import Geometry
from repro.hostkv.hashkv.store import WRITE_BLOCK_BYTES, HashKVStore
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Environment
from repro.units import KIB


def make_store(blocks_per_plane=16):
    from repro.api.block import BlockDeviceAPI
    from repro.blockftl.device import BlockSSD
    from repro.metrics.cpu import CpuAccountant
    from repro.nvme.driver import KernelDeviceDriver

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
    store = HashKVStore(env, api)
    return env, device, store


def run(env, generator, limit_delta=600e6):
    process = env.process(generator)
    return env.run_until_complete(process, limit=env.now + limit_delta)


def key(i):
    return b"askey-%09d" % i


def test_put_get_roundtrip():
    env, _device, store = make_store()

    def proc(env):
        yield env.process(store.put(key(1), 100))
        value = yield env.process(store.get(key(1)))
        return value

    assert run(env, proc(env)) == 100
    assert store.live_keys() == 1


def test_get_absent_raises():
    env, _device, store = make_store()
    with pytest.raises(KeyNotFoundError):
        run(env, store.get(key(404)))


def test_record_bytes_rounding():
    _env, _device, store = make_store()
    # 35 header + 20 digest + 50 value = 105 -> rounds to 112 (16 B rblock).
    assert store.record_bytes(50) == 112
    assert store.record_bytes(0) == 64
    with pytest.raises(ConfigurationError):
        store.record_bytes(-1)


def test_space_amplification_below_two_for_small_values():
    env, _device, store = make_store()
    store.fast_fill(2000, 50, KeyScheme(prefix=b"fill", digits=12))
    # Paper Fig. 7: Aerospike < 2x for 50 B values (reported 1.8x).
    assert 1.2 < store.space_amplification() < 2.0


def test_update_retires_old_record():
    env, _device, store = make_store()

    def proc(env):
        yield env.process(store.put(key(1), 100))
        yield env.process(store.put(key(1), 300))
        value = yield env.process(store.get(key(1)))
        return value

    assert run(env, proc(env)) == 300
    assert store.live_keys() == 1


def test_delete_removes_key():
    env, _device, store = make_store()

    def proc(env):
        yield env.process(store.put(key(1), 100))
        yield env.process(store.delete(key(1)))

    run(env, proc(env))
    assert store.live_keys() == 0
    with pytest.raises(KeyNotFoundError):
        run(env, store.get(key(1)))


def test_write_block_flush_and_read_from_device():
    env, device, store = make_store()
    per_block = WRITE_BLOCK_BYTES // store.record_bytes(1000)

    def proc(env):
        for i in range(per_block + 5):
            yield env.process(store.put(key(i), 1000))
        yield env.process(store.drain())
        # key(0) sits in a flushed block now: a real device read happens.
        reads_before = device.stats.host_reads
        yield env.process(store.get(key(0)))
        return device.stats.host_reads - reads_before

    assert run(env, proc(env)) == 1


def test_defrag_reclaims_blocks_under_updates():
    env, _device, store = make_store(blocks_per_plane=4)

    def proc(env):
        # Fill a few write blocks, then update everything repeatedly so
        # old blocks fall below the defrag threshold.
        n = 2000
        for round_index in range(4):
            for i in range(n):
                yield env.process(store.put(key(i), 400))
        yield env.process(store.drain())

    run(env, proc(env))
    assert store.defrag_runs > 0
    assert store.defrag_moved_bytes >= 0
    assert store.live_keys() == 2000

    def verify(env):
        value = yield env.process(store.get(key(7)))
        return value

    assert run(env, verify(env)) == 400


def test_fast_fill_state_consistent():
    env, _device, store = make_store()
    scheme = store.fast_fill(5000, 512)
    assert store.live_keys() == 5000

    def proc(env):
        value = yield env.process(store.get(scheme.key_for(123)))
        yield env.process(store.put(scheme.key_for(123), 512))
        return value

    assert run(env, proc(env)) == 512
    assert store.live_keys() == 5000


def test_fast_fill_stops_where_the_digits_run_out():
    env, _device, store = make_store()
    scheme = KeyScheme(prefix=b"k", digits=3)
    with pytest.raises(ConfigurationError, match="3-digit"):
        store.fast_fill(1001, 512, scheme)
    assert store.live_keys() == 0
    store.fast_fill(1000, 512, scheme)
    assert store.live_keys() == 1000
    assert run(env, store.get(scheme.key_for(999))) == 512


def test_fill_overflow_raises():
    env, _device, store = make_store(blocks_per_plane=4)
    with pytest.raises(DeviceFullError):
        store.fast_fill(10_000_000, 4096)


def test_oversized_record_rejected():
    env, _device, store = make_store()
    with pytest.raises(ConfigurationError):
        run(env, store.put(key(1), WRITE_BLOCK_BYTES))


def _fill_against_per_block_priming(before_fill):
    """A store filled by ``fast_fill`` and a twin whose device is primed
    the way the fill once did it, one call per write block in pop order;
    ``before_fill(env, store)`` runs on both first."""
    env, device, store = make_store()
    twin_env, twin_device, twin = make_store()
    before_fill(env, store)
    before_fill(twin_env, twin)
    pairs, value_bytes = 3000, 512
    used = -(-pairs // (WRITE_BLOCK_BYTES // store.record_bytes(value_bytes)))
    order = list(twin._free)[:used]
    units = WRITE_BLOCK_BYTES // twin_device.map_unit
    for wblock in order:
        twin_device.prime_sequential_fill(units, wblock * units)
    store.fast_fill(pairs, value_bytes)
    return device, twin_device, order


def _assert_same_device_state(device, twin_device):
    assert (device.pagemap._forward == twin_device.pagemap._forward).all()
    assert (device.pagemap._reverse == twin_device.pagemap._reverse).all()
    assert device.pagemap.mapped_units == twin_device.pagemap.mapped_units
    assert ([info.valid_bytes for info in device.array.blocks]
            == [info.valid_bytes for info in twin_device.array.blocks])


def test_fast_fill_primes_runs_of_write_blocks_as_block_by_block():
    """A fresh store pops write blocks 1, 2, 3, ...: one run, one prime
    call, and the same page map and valid bytes as a call per block."""
    device, twin_device, order = _fill_against_per_block_priming(
        lambda env, store: None
    )
    assert order == list(range(order[0], order[0] + len(order)))
    _assert_same_device_state(device, twin_device)


def test_fast_fill_after_puts_moved_the_free_list():
    """Puts that roll the current write block pop the free list, and a
    free list whose head does not continue its tail splits the fill into
    two runs: still the state of one prime call per block."""
    record = 60_000

    def roll_then_rotate(env, store):
        per_block = WRITE_BLOCK_BYTES // store.record_bytes(record)

        def proc(env):
            for i in range(2 * per_block + 1):
                yield env.process(store.put(key(i), record))
            yield env.process(store.drain())

        run(env, proc(env))
        store._free.rotate(3)

    device, twin_device, order = _fill_against_per_block_priming(
        roll_then_rotate
    )
    breaks = sum(b != a + 1 for a, b in zip(order, order[1:]))
    assert breaks == 1 and order[0] > order[-1]
    _assert_same_device_state(device, twin_device)
