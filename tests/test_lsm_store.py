"""Integration tests for the LSM store over the simulated device."""

import pytest

from repro.errors import KeyNotFoundError
from repro.flash.geometry import Geometry
from repro.hostkv.lsm.compaction import L0_COMPACTION_TRIGGER
from repro.hostkv.lsm.store import LSMConfig, LSMStore
from repro.sim.engine import Environment
from repro.units import KIB, MIB


def make_store(blocks_per_plane=24, **lsm_kwargs):
    from repro.api.block import BlockDeviceAPI
    from repro.blockftl.device import BlockSSD
    from repro.hostkv.fs.ext4 import SimFileSystem
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
    fs = SimFileSystem(env, api)
    defaults = dict(memtable_bytes=256 * KIB, level_base_bytes=1 * MIB,
                    sst_target_bytes=256 * KIB)
    defaults.update(lsm_kwargs)
    store = LSMStore(env, fs, LSMConfig(**defaults))
    return env, device, store


def run(env, generator, limit_delta=600e6):
    process = env.process(generator)
    return env.run_until_complete(process, limit=env.now + limit_delta)


def key(i):
    return b"lsmkey-%08d" % i


def test_put_get_from_memtable():
    env, _device, store = make_store()

    def proc(env):
        yield env.process(store.put(key(1), 4096))
        value = yield env.process(store.get(key(1)))
        return value

    assert run(env, proc(env)) == 4096


def test_get_absent_raises():
    env, _device, store = make_store()

    def proc(env):
        yield env.process(store.put(key(1), 100))

    run(env, proc(env))
    with pytest.raises(KeyNotFoundError):
        run(env, store.get(key(2)))


def test_delete_visible_through_all_levels():
    env, _device, store = make_store()

    def proc(env):
        for i in range(500):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())
        yield env.process(store.delete(key(7)))
        yield env.process(store.drain())

    run(env, proc(env))
    with pytest.raises(KeyNotFoundError):
        run(env, store.get(key(7)))

    def alive(env):
        value = yield env.process(store.get(key(8)))
        return value

    assert run(env, alive(env)) == 2048


def test_flush_creates_sstables_and_unlinks_wal():
    env, _device, store = make_store()

    def proc(env):
        for i in range(400):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())

    run(env, proc(env))
    assert store.flushes_run >= 1
    total_tables = sum(len(level) for level in store.levels)
    assert total_tables >= 1
    # No stale WAL files linger after their memtables flushed.
    wal_files = [name for name in store.fs.files() if "wal" in name]
    assert len(wal_files) <= 1


def test_compaction_triggers_and_preserves_data():
    env, _device, store = make_store()
    n = 3000

    def proc(env):
        for i in range(n):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())

    run(env, proc(env))
    assert store.compactions_run >= 1
    assert store.live_entries() == n
    assert len(store.levels[0]) < L0_COMPACTION_TRIGGER

    def spot_check(env):
        values = []
        for i in (0, 1, n // 2, n - 1):
            value = yield env.process(store.get(key(i)))
            values.append(value)
        return values

    assert run(env, spot_check(env)) == [2048] * 4


def test_updates_newest_wins_after_compaction():
    env, _device, store = make_store()

    def proc(env):
        for i in range(1500):
            yield env.process(store.put(key(i), 1000))
        for i in range(0, 1500, 2):
            yield env.process(store.put(key(i), 3000))
        yield env.process(store.drain())
        even = yield env.process(store.get(key(10)))
        odd = yield env.process(store.get(key(11)))
        return even, odd

    assert run(env, proc(env)) == (3000, 1000)
    assert store.live_entries() == 1500


def test_space_amplification_near_paper_value():
    env, _device, store = make_store()

    def proc(env):
        for i in range(2500):
            yield env.process(store.put(key(i), 2048))
        for i in range(2500):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())

    run(env, proc(env))
    # Leveled steady state: modest obsolescence (paper cites 1.111).
    assert store.space_amplification() < 1.6


def test_stalls_recorded_under_write_burst():
    env, _device, store = make_store(memtable_bytes=64 * KIB)

    def proc(env):
        for i in range(2000):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())

    run(env, proc(env))
    assert store.stall_time_us > 0.0


def test_prime_fill_supports_reads_and_updates():
    env, _device, store = make_store()
    entries = {key(i): 2048 for i in range(2000)}
    store.prime_fill(entries, level=3)
    assert store.live_entries() == 2000

    def proc(env):
        value = yield env.process(store.get(key(55)))
        yield env.process(store.put(key(55), 4000))
        updated = yield env.process(store.get(key(55)))
        return value, updated

    assert run(env, proc(env)) == (2048, 4000)


def test_host_cpu_charged_heavily_vs_raw_device():
    env, _device, store = make_store()

    def proc(env):
        for i in range(300):
            yield env.process(store.put(key(i), 2048))
        yield env.process(store.drain())

    run(env, proc(env))
    cpu = store.fs.block_api.driver.cpu
    per_op = cpu.total_busy_us / 300
    # The thick-stack cost the paper's RQ1 is about: tens of us per op.
    assert per_op > 20.0


def test_identical_rigs_in_one_process_agree():
    """SSTable ids name the files and the names salt the Bloom
    false-positive draw, so ids must restart per store: the second of
    two identical rigs may not see the first one's tables in its ids."""
    from repro.core.experiment import build_lsm_rig, lab_geometry
    from repro.kvbench.runner import execute_workload
    from repro.kvbench.workload import (
        Pattern,
        WorkloadSpec,
        generate_operations,
    )

    def one_rig():
        rig = build_lsm_rig(
            lab_geometry(8),
            lsm_config=LSMConfig(memtable_bytes=64 * KIB,
                                 sst_target_bytes=64 * KIB),
        )
        means = []
        for op, pattern in (("insert", Pattern.SEQUENTIAL),
                            ("update", Pattern.SEQUENTIAL),
                            ("read", Pattern.UNIFORM)):
            spec = WorkloadSpec(n_ops=600, op=op, pattern=pattern,
                                population=600, value_bytes=1024, seed=3)
            run = execute_workload(rig.env, rig.adapter,
                                   generate_operations(spec), queue_depth=4)
            means.append(run.latency.mean())
            rig.drain()
        assert rig.store.flushes_run > 0
        names = sorted(t.name for level in rig.store.levels for t in level)
        return means, rig.env.now, names

    assert one_rig() == one_rig()
