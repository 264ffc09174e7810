"""Integration tests for the block-SSD personality."""

import pytest

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.core.experiment import build_block_rig, lab_geometry
from repro.errors import AddressError
from repro.flash.geometry import Geometry
from repro.flash.timing import READ_US
from repro.sim.engine import Environment
from repro.units import KIB


def make_ssd(blocks_per_plane=16, **config_kwargs):
    geometry = Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )
    env = Environment()
    ssd = BlockSSD(env, geometry, config=BlockSSDConfig(**config_kwargs))
    return env, ssd


def run(env, generator, limit=60e6):
    process = env.process(generator)
    return env.run_until_complete(process, limit=limit)


def test_write_completes_fast_via_buffer():
    env, ssd = make_ssd()

    def proc(env):
        started = env.now
        yield env.process(ssd.write(0, 4096))
        return env.now - started

    latency = run(env, proc(env))
    # Buffered write: far below the ~740us flash program time.
    assert latency < 100.0


def test_write_then_drain_lands_on_flash():
    env, ssd = make_ssd()

    def proc(env):
        for i in range(16):
            yield env.process(ssd.write(i * 4096, 4096))
        yield env.process(ssd.drain())

    run(env, proc(env))
    assert ssd.occupied_bytes == 16 * 4096
    assert ssd.stats.flash_programs >= 2
    assert ssd.buffer.occupied_bytes == 0


def test_read_after_drain_hits_flash():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.write(0, 4096))
        yield env.process(ssd.drain())
        reads_before = ssd.stats.flash_reads
        started = env.now
        yield env.process(ssd.read(0, 4096))
        return ssd.stats.flash_reads - reads_before, env.now - started

    flash_reads, latency = run(env, proc(env))
    assert flash_reads == 1
    assert latency > READ_US


def test_read_of_buffered_data_skips_flash():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.write(0, 4096))
        reads_before = ssd.stats.flash_reads
        yield env.process(ssd.read(0, 4096))
        return ssd.stats.flash_reads - reads_before

    assert run(env, proc(env)) == 0


def test_overwrite_invalidates_old_copy():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.write(0, 4096))
        yield env.process(ssd.drain())
        yield env.process(ssd.write(0, 4096))
        yield env.process(ssd.drain())

    run(env, proc(env))
    assert ssd.occupied_bytes == 4096  # one live copy
    assert ssd.array.total_valid_bytes() == 4096


def test_sub_unit_write_is_rmw_after_flush():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.write(0, 4096))
        yield env.process(ssd.drain())
        reads_before = ssd.stats.flash_reads
        yield env.process(ssd.write(512, 512))
        return ssd.stats.flash_reads - reads_before

    assert run(env, proc(env)) == 1  # read-modify-write fetched the old unit


def test_sequential_write_cheaper_than_random():
    env, ssd = make_ssd()

    def measure(env, offsets):
        latencies = []
        for offset in offsets:
            started = env.now
            yield env.process(ssd.write(offset, 4096))
            latencies.append(env.now - started)
        yield env.process(ssd.drain())
        return sum(latencies) / len(latencies)

    import random

    rng = random.Random(5)
    n = 200
    seq = run(env, measure(env, [i * 4096 for i in range(n)]))
    span = ssd.n_units
    random_offsets = [rng.randrange(span) * 4096 for _ in range(n)]
    rand = run(env, measure(env, random_offsets))
    assert seq < rand  # segment-cache locality (the paper's 0.6x writes)


def test_sequential_read_cheaper_than_random():
    env, ssd = make_ssd()
    ssd.prime_sequential_fill(ssd.n_units)
    import random

    rng = random.Random(5)

    def measure(env, offsets):
        latencies = []
        for offset in offsets:
            started = env.now
            yield env.process(ssd.read(offset, 4096))
            latencies.append(env.now - started)
        return sum(latencies) / len(latencies)

    n = 200
    seq = run(env, measure(env, [i * 4096 for i in range(n)]))
    rand = run(
        env,
        measure(env, [rng.randrange(ssd.n_units) * 4096 for _ in range(n)]),
    )
    assert seq < rand  # the paper's ~0.8x sequential read advantage
    assert 0.5 < seq / rand < 0.95


def test_deallocate_releases_space():
    env, ssd = make_ssd()

    def proc(env):
        for i in range(8):
            yield env.process(ssd.write(i * 4096, 4096))
        yield env.process(ssd.drain())
        yield env.process(ssd.deallocate(0, 8 * 4096))

    run(env, proc(env))
    assert ssd.occupied_bytes == 0
    assert ssd.array.total_valid_bytes() == 0


def test_trim_during_the_units_flush_is_not_undone():
    """A TRIM landing after the flush worker took the unit off the write
    buffer, but before the program commits, must stay a TRIM: the commit
    used to map the trimmed unit back in."""
    rig = build_block_rig(lab_geometry(8))
    env, api = rig.env, rig.api

    def session(env):
        yield env.process(api.write(0, 8 * 4096))  # one page of units
        yield env.sleep(5.0)  # the flush has taken them; not yet programmed
        yield env.process(api.deallocate(0, 4096))

    env.run_until_complete(env.process(session(env)))
    rig.drain()
    assert not rig.device.pagemap.is_mapped(0)
    assert rig.device.live_bytes() == 7 * 4096
    assert rig.device.array.total_valid_bytes() == 7 * 4096


def test_prime_fill_matches_timed_state():
    env, ssd = make_ssd()
    ssd.prime_sequential_fill(64)
    assert ssd.occupied_bytes == 64 * 4096
    assert ssd.pagemap.mapped_units == 64

    def proc(env):
        yield env.process(ssd.read(0, 4096))

    run(env, proc(env))  # primed data is readable


def test_overlapping_prime_fills_invalidate_the_stale_copies():
    """A second fill over part of the first rebinds those units: each old
    copy is invalidated once (per victim block, in aggregate), so the map
    and the flash array's valid bytes still agree unit for unit."""
    env, ssd = make_ssd(invariants=True)
    quarter = ssd.n_units // 4
    # Both ranges end off a page boundary, so the batched cycles, the
    # per-page rotation path and the partial-page tail all rebind units.
    ssd.prime_sequential_fill(2 * quarter + 3)
    ssd.prime_sequential_fill(2 * quarter + 5, start_unit=quarter)
    ssd.core.check_invariants("primed twice")
    assert ssd.pagemap.mapped_units == 3 * quarter + 5
    assert ssd.array.total_valid_bytes() == ssd.pagemap.mapped_units * ssd.map_unit


def test_address_validation():
    env, ssd = make_ssd()
    with pytest.raises(AddressError):
        run(env, ssd.write(0, 0))
    with pytest.raises(AddressError):
        run(env, ssd.write(ssd.user_capacity_bytes, 4096))
    with pytest.raises(AddressError):
        run(env, ssd.write(100, 512))  # unaligned offset


def test_gc_reclaims_space_under_overwrite_pressure():
    env, ssd = make_ssd(blocks_per_plane=4)
    span_units = ssd.n_units // 2

    def proc(env):
        # Overwrite half the device several times over.
        for round_index in range(6):
            for unit in range(span_units):
                yield env.process(ssd.write(unit * 4096, 4096))
        yield env.process(ssd.drain())

    run(env, proc(env), limit=300e6)
    assert ssd.stats.gc_runs > 0
    assert ssd.stats.gc_erased_blocks > 0
    assert ssd.occupied_bytes == span_units * 4096
    # Mapping stays consistent: every live unit readable.
    def check(env):
        yield env.process(ssd.read(0, 4096))

    run(env, check(env))


def test_counters_track_host_traffic():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.write(0, 8192))
        yield env.process(ssd.drain())
        yield env.process(ssd.read(0, 8192))

    run(env, proc(env))
    assert ssd.stats.host_writes == 1
    assert ssd.stats.host_write_bytes == 8192
    assert ssd.stats.host_reads == 1
    assert ssd.stats.host_read_bytes == 8192


def test_calibration_anchors_at_qd1():
    """The PM983 anchors ``blockftl/config.py`` states (DESIGN §4), on a
    primed ``lab_geometry(16)`` drive at QD1 with 4 KiB I/O: a random
    read ~88.6 us and a buffered random write ~25.6 us through the direct
    I/O API, and at the device sequential/random latency ratios of ~0.84
    for reads and ~0.6 for writes."""
    import random

    from repro.core.experiment import build_block_rig, lab_geometry

    rig = build_block_rig(lab_geometry(16))
    device = rig.device
    device.prime_sequential_fill(device.n_units)
    rng = random.Random(5)

    def mean_us(op, offsets):
        def proc(env):
            total = 0.0
            for offset in offsets:
                started = env.now
                yield env.process(op(offset, 4096))
                total += env.now - started
            return total / len(offsets)

        return run(rig.env, proc(rig.env), limit=rig.env.now + 1e9)

    def rand(n=200):
        return [rng.randrange(device.n_units) * 4096 for _ in range(n)]

    seq = [i * 4096 for i in range(200)]
    assert 80.0 < mean_us(rig.api.read, rand()) < 95.0
    assert 20.0 < mean_us(rig.api.write, rand()) < 30.0
    read_ratio = mean_us(device.read, seq) / mean_us(device.read, rand())
    write_ratio = mean_us(device.write, seq) / mean_us(device.write, rand())
    assert 0.75 < read_ratio < 0.9
    assert 0.5 < write_ratio < 0.7
