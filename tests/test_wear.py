"""Tests for per-block erase counts, the wear the fault model grows with."""

from repro.flash.geometry import tiny_geometry
from repro.flash.nand import FlashArray
from repro.ftl.core import DeviceStats
from repro.sim.engine import Environment


def make_array():
    env = Environment()
    return FlashArray(env, tiny_geometry(), DeviceStats())


def erase_counts(array):
    return [info.erase_count for info in array.blocks]


def test_fresh_array_is_perfectly_level():
    assert set(erase_counts(make_array())) == {0}


def test_uneven_wear_detected():
    array = make_array()
    for _ in range(10):
        array.prime_erase(0)
    array.prime_erase(1)
    counts = erase_counts(array)
    assert counts[:2] == [10, 1]
    assert max(counts) - min(counts) == 10
    assert sum(counts) == 11


def test_gc_spreads_wear_across_blocks():
    """After sustained overwrite churn, GC erases many distinct blocks."""
    from repro.blockftl.device import BlockSSD
    from repro.flash.geometry import Geometry
    from repro.units import KIB

    geometry = Geometry(
        channels=2, dies_per_channel=2, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=16, page_bytes=32 * KIB,
    )
    env = Environment()
    ssd = BlockSSD(env, geometry)
    span = ssd.n_units // 3

    def churn(env):
        for _round in range(10):
            for unit in range(span):
                yield env.process(ssd.write(unit * ssd.map_unit, ssd.map_unit))
        yield env.process(ssd.drain())

    process = env.process(churn(env))
    env.run_until_complete(process, limit=600e6)
    counts = erase_counts(ssd.array)
    assert sum(counts) == ssd.stats.flash_erases > 0
    worn_blocks = sum(1 for count in counts if count > 0)
    assert worn_blocks >= 3  # erases are not concentrated on one block
