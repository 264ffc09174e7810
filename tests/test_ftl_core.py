"""Tests for the shared FTL core: DeviceStats and personality parity.

The core's contract is that reclamation behaviour is a function of the
flash layout alone, never of the hosting personality.  The parity tests
sculpt identical valid-byte layouts under both devices and assert the
core makes identical decisions (same victims, same benefit scores, same
allowance stalls); the DeviceStats tests pin the unified telemetry
struct both personalities report through.
"""

import pytest

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.flash.geometry import Geometry, tiny_geometry
from repro.flash.nand import BlockState, FlashArray
from repro.ftl.core import GC_RESERVE_BLOCKS, DeviceStats
from repro.ftl.writebuffer import WriteBuffer
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.sim.engine import Environment
from repro.units import KIB


def lab_geometry():
    return Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=16,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )


def make_pair():
    """Both personalities on identical hardware, matched page payloads.

    ``page_reserved_bytes=0`` makes the KV usable page equal the block
    personality's slots-per-page payload, so ``gc_page_benefit`` is
    directly comparable.
    """
    kv_env = Environment()
    kv = KVSSD(
        kv_env,
        lab_geometry(),
        config=KVSSDConfig(page_reserved_bytes=0),
    )
    blk_env = Environment()
    blk = BlockSSD(blk_env, lab_geometry(), config=BlockSSDConfig())
    assert kv.core.page_payload_bytes == blk.core.page_payload_bytes
    return (kv_env, kv), (blk_env, blk)


def sculpt(device, block, valid_bytes):
    """Close ``block`` holding ``valid_bytes`` of live data, page-spread."""
    pages = device.array.geometry.pages_per_block
    device.pool.reserve(block)
    device.array.open_block(block)
    per_page = valid_bytes // pages
    for _ in range(pages):
        device.array.prime_program(block, per_page)
    assert device.array.blocks[block].state is BlockState.CLOSED


# -- DeviceStats --------------------------------------------------------------


def test_stats_space_accounting_roundtrip():
    stats = DeviceStats()
    stats.record_store(16, 100, 1024)
    stats.record_store(16, 500, 1024)
    assert stats.app_bytes == 632
    assert stats.device_bytes == 2048
    assert stats.amplification() == pytest.approx(2048 / 632)
    assert stats.amplification_value_only() == pytest.approx(2048 / 600)
    stats.record_remove(16, 100, 1024)
    stats.record_remove(16, 500, 1024)
    assert stats.app_bytes == 0
    assert stats.device_bytes == 0


def test_stats_rejects_unmatched_accounting():
    stats = DeviceStats()
    with pytest.raises(ValueError):
        stats.record_store(-1, 100, 1024)
    with pytest.raises(ValueError):
        stats.record_remove(16, 100, 1024)
    with pytest.raises(ValueError):
        DeviceStats().amplification()


def test_refused_remove_leaves_space_books_unchanged():
    stats = DeviceStats()
    stats.record_store(16, 100, 1024)
    # The key and value books could cover this remove; the device book
    # cannot, so nothing may move.
    with pytest.raises(ValueError):
        stats.record_remove(16, 100, 2048)
    assert (stats.app_key_bytes, stats.app_value_bytes, stats.device_bytes) == (
        16, 100, 1024,
    )


def test_stats_snapshot_delta_cover_subclass_fields():
    stats = DeviceStats()
    stats.host_write_bytes = 1000
    stats.flash_programs = 3
    stats.buffer_stall_us = 5.0
    stats.gc_victims.append(7)
    before = stats.snapshot()
    stats.host_write_bytes += 500
    stats.flash_programs += 2
    stats.buffer_stall_us += 2.5
    stats.allowance_stalls += 1
    stats.gc_victims.append(9)
    delta = stats.delta(before)
    assert isinstance(delta, DeviceStats)
    assert delta.host_write_bytes == 500
    assert delta.flash_programs == 2
    assert delta.buffer_stall_us == pytest.approx(2.5)
    assert delta.allowance_stalls == 1
    assert delta.gc_victims == [9]  # only entries appended after snapshot
    assert before.gc_victims == [7]  # snapshot copied, not aliased


def test_stats_stall_time_and_waf():
    stats = DeviceStats()
    assert stats.write_amplification() == 1.0  # idle device
    stats.host_write_bytes = 1000
    stats.gc_relocated_bytes = 500
    assert stats.write_amplification() == pytest.approx(1.5)
    stats.buffer_stall_us = 30.0
    stats.allowance_stall_us = 70.0
    assert stats.stall_time_us() == pytest.approx(100.0)


def test_device_stats_summary_headlines():
    stats = DeviceStats()
    stats.host_write_bytes = 1000
    stats.gc_relocated_bytes = 2 * 1024 * 1024
    stats.gc_runs = 4
    stats.foreground_gc_runs = 1
    stats.buffer_stall_us = 1500.0
    stats.allowance_stall_us = 500.0
    summary = stats.summary()
    assert summary["waf"] == pytest.approx(stats.write_amplification())
    assert summary["gc_moved_mib"] == pytest.approx(2.0)
    assert summary["foreground_gc_fraction"] == pytest.approx(0.25)
    assert summary["stall_ms"] == pytest.approx(2.0)
    assert DeviceStats().summary()["foreground_gc_fraction"] == 0.0


def test_write_buffer_feeds_stall_telemetry():
    env = Environment()
    stats = DeviceStats()
    buffer = WriteBuffer(env, 1000, stats)

    def writer(env):
        yield from buffer.admit(800)
        yield from buffer.admit(800)

    def drainer(env):
        yield env.timeout(30.0)
        buffer.drain(800)

    env.process(writer(env))
    env.process(drainer(env))
    env.run()
    assert stats.buffer_stall_us == pytest.approx(30.0)


def test_flash_array_feeds_operation_counters():
    env = Environment()
    stats = DeviceStats()
    array = FlashArray(env, tiny_geometry(), stats)
    array.open_block(0)
    array.prime_program(0, 64)  # untimed setup must not count
    assert stats.flash_programs == 0

    def proc(env):
        yield from array.program(1, array.geometry.page_bytes, 64)
        yield from array.read(1, 0, array.geometry.page_bytes)

    array.open_block(1)
    env.run_until_complete(env.process(proc(env)))
    assert stats.flash_programs == 1
    assert stats.flash_reads == 1


# -- personality parity -------------------------------------------------------

#: Valid bytes per sculpted block (divisible by the 32 pages per block).
LAYOUT = [8192, 2048, 16384, 4096]


def test_identical_layouts_yield_identical_victims():
    (kv_env, kv), (blk_env, blk) = make_pair()
    kv_off = len(kv._index_region)  # KV data blocks sit past the index region
    for i, valid in enumerate(LAYOUT):
        sculpt(kv, kv_off + i, valid)
        sculpt(blk, i, valid)

    for i in range(len(LAYOUT)):
        assert kv.core.gc_page_benefit(kv_off + i) == blk.core.gc_page_benefit(i)
    assert kv.core.has_reclaimable_victim()
    assert blk.core.has_reclaimable_victim()

    kv_seq, blk_seq = [], []
    for _ in LAYOUT:
        kv_victim = kv.core.select_victim()
        blk_victim = blk.core.select_victim()
        kv_seq.append(kv_victim - kv_off)
        blk_seq.append(blk_victim)
        # Consume the victim the way GC would: drop the live data and
        # erase, so the next selection moves on.
        for env, device, victim in (
            (kv_env, kv, kv_victim),
            (blk_env, blk, blk_victim),
        ):
            device.array.invalidate(victim, device.array.blocks[victim].valid_bytes)
            env.run_until_complete(
                env.process(device.array.erase(victim)), limit=env.now + 1e6
            )
    assert kv_seq == blk_seq
    assert not kv.core.has_reclaimable_victim()
    assert not blk.core.has_reclaimable_victim()


def test_index_region_is_fenced_from_gc():
    (_, kv), _ = make_pair()
    # Region blocks are CLOSED with zero valid bytes — irresistible to any
    # victim policy unless the eligibility fence holds.
    assert all(
        kv.array.blocks[b].state is BlockState.CLOSED for b in kv._index_region
    )
    assert kv.core.select_victim() is None
    assert not kv.core.has_reclaimable_victim()


def drain_pool_to(core, floor):
    taken = []
    while len(core.pool) > floor:
        taken.append(core.pool.pop())
    return taken


@pytest.mark.parametrize("make", [0, 1])
def test_allowance_arbitration_and_stall_accounting(make):
    (kv_env, kv), (blk_env, blk) = make_pair()
    env, device = ((kv_env, kv), (blk_env, blk))[make]
    core = device.core
    taken = drain_pool_to(core, GC_RESERVE_BLOCKS)

    # GC digs below the reserve without stalling...
    env.run_until_complete(
        env.process(core.block_allowance(for_gc=True)), limit=env.now + 1e6
    )
    assert core.stats.allowance_stalls == 0

    # ...while a host flush waits above it until space frees.
    done = []

    def host(env):
        yield from core.block_allowance(for_gc=False)
        done.append(env.now)

    def refill(env):
        yield env.timeout(50.0)
        core.pool.push(taken.pop())
        core._space.notify_all()

    env.process(refill(env))
    env.run_until_complete(env.process(host(env)), limit=env.now + 1e6)
    assert done == [50.0]
    assert core.stats.allowance_stalls == 1
    assert core.stats.allowance_stall_us == pytest.approx(50.0)


def test_allowance_stalls_match_across_personalities():
    (kv_env, kv), (blk_env, blk) = make_pair()
    for env, device in ((kv_env, kv), (blk_env, blk)):
        core = device.core
        taken = drain_pool_to(core, GC_RESERVE_BLOCKS)

        def host(env, core=core):
            yield from core.block_allowance(for_gc=False)

        def refill(env, core=core, taken=taken):
            yield env.timeout(125.0)
            core.pool.push(taken.pop())
            core._space.notify_all()

        env.process(refill(env))
        env.run_until_complete(env.process(host(env)), limit=env.now + 1e6)
    assert kv.stats.allowance_stalls == blk.stats.allowance_stalls == 1
    assert kv.stats.allowance_stall_us == pytest.approx(
        blk.stats.allowance_stall_us
    )
