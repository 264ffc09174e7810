"""Integration tests for the hash-index store (Aerospike stand-in)."""

import pytest

from repro.errors import ConfigurationError, DeviceFullError, KeyNotFoundError
from repro.flash.geometry import Geometry
from repro.hostkv.hashkv.store import HashKVConfig, HashKVStore
from repro.kvftl.population import KeyScheme
from repro.sim.engine import Environment
from repro.units import KIB


def make_store(blocks_per_plane=16, **config_kwargs):
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
    driver = KernelDeviceDriver(env, CpuAccountant(env))
    api = BlockDeviceAPI(env, device, driver)
    store = HashKVStore(env, api, HashKVConfig(**config_kwargs))
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
    per_block = store.config.write_block_bytes // store.record_bytes(1000)

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
        run(env, store.put(key(1), store.config.write_block_bytes))
