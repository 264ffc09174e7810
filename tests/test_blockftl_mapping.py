"""Unit tests for the block personality's mapping structures."""

import pytest

from repro.blockftl.mapping import UNMAPPED, PageMap, SegmentCache
from repro.errors import AddressError, ConfigurationError
from repro.flash.geometry import Geometry, tiny_geometry
from repro.units import KIB


def make_map(n_units=64):
    geometry = tiny_geometry()  # 4 KiB pages -> 1 slot per page
    return PageMap(geometry, 4 * KIB, n_units)


# -- PageMap ---------------------------------------------------------------


def test_bind_and_lookup_roundtrip():
    pagemap = make_map()
    pagemap.bind(5, block=2, page=3, slot=0)
    slot_id = pagemap.lookup(5)
    assert slot_id != UNMAPPED
    assert pagemap.unflatten(slot_id) == (2, 3, 0)
    assert pagemap.unit_at(slot_id) == 5
    assert pagemap.mapped_units == 1


def test_rebind_moves_unit():
    pagemap = make_map()
    assert pagemap.bind(5, 2, 3, 0) == UNMAPPED
    old_slot = pagemap.lookup(5)
    assert pagemap.bind(5, 4, 1, 0) == 2  # the block of the displaced copy
    assert pagemap.unit_at(old_slot) == UNMAPPED
    assert pagemap.unflatten(pagemap.lookup(5)) == (4, 1, 0)
    assert pagemap.mapped_units == 1


def test_bind_occupied_slot_rejected():
    pagemap = make_map()
    pagemap.bind(1, 2, 3, 0)
    with pytest.raises(AddressError):
        pagemap.bind(2, 2, 3, 0)


def test_release_returns_the_old_block_once():
    pagemap = make_map()
    pagemap.bind(1, 2, 3, 0)
    slot = pagemap.lookup(1)
    assert pagemap.release(1) == 2
    assert pagemap.unit_at(slot) == UNMAPPED
    assert not pagemap.is_mapped(1)
    assert pagemap.mapped_units == 0
    assert pagemap.release(1) == UNMAPPED
    assert pagemap.mapped_units == 0
    with pytest.raises(AddressError):
        pagemap.release(-1)


def test_unit_range_checked():
    pagemap = make_map(n_units=10)
    with pytest.raises(AddressError):
        pagemap.lookup(10)
    with pytest.raises(AddressError):
        pagemap.bind(-1, 0, 0, 0)


def test_live_units_in_block_enumeration():
    pagemap = make_map()
    pagemap.bind(7, 3, 0, 0)
    pagemap.bind(9, 3, 2, 0)
    pagemap.bind(11, 4, 0, 0)
    live = pagemap.live_units_in_block(3)
    assert sorted(live) == [(7, 0, 0), (9, 2, 0)]
    assert pagemap.live_units_in_block(5) == []


def test_slot_arithmetic_inverse():
    pagemap = make_map()
    geometry = pagemap.geometry
    for block in (0, geometry.total_blocks - 1):
        for page in (0, geometry.pages_per_block - 1):
            slot_id = pagemap.slot_id(block, page, 0)
            assert pagemap.unflatten(slot_id) == (block, page, 0)


def test_map_unit_must_divide_page():
    with pytest.raises(ConfigurationError):
        PageMap(tiny_geometry(), 3000, 10)


def test_tables_are_32_bit_and_refuse_what_they_cannot_name():
    """One dtype: int32 entries.  The paper's 3.84 TB drive at 4 KiB units
    is 9.4e8 slots and fits; 2**31 units or slots do not, and are refused
    before a table is allocated."""
    pagemap = make_map()
    assert pagemap._forward.dtype == pagemap._reverse.dtype == "int32"
    pagemap.bind(63, tiny_geometry().total_blocks - 1, 15, 0)
    assert pagemap.unflatten(pagemap.lookup(63)) == (tiny_geometry().total_blocks - 1, 15, 0)
    with pytest.raises(ConfigurationError, match="32-bit"):
        PageMap(tiny_geometry(), 4 * KIB, 2**31)
    # 2**28 pages of 32 KiB in 4 KiB units: 2**31 slots.
    huge = Geometry(channels=8, dies_per_channel=2, planes_per_die=2,
                    blocks_per_plane=2**17, pages_per_block=64, page_bytes=32 * KIB)
    with pytest.raises(ConfigurationError, match="32-bit"):
        PageMap(huge, 4 * KIB, 10)


# -- SegmentCache --------------------------------------------------------------


def test_segment_cache_hits_within_segment():
    cache = SegmentCache(segment_units=100, entries=2)
    assert not cache.access(5)  # cold
    assert cache.access(6)  # same segment
    assert cache.access(99)
    assert not cache.access(100)  # next segment


def test_segment_cache_lru_eviction():
    cache = SegmentCache(segment_units=10, entries=2)
    cache.access(0)  # segment 0
    cache.access(10)  # segment 1
    cache.access(20)  # segment 2 evicts segment 0
    assert not cache.access(0)


def test_segment_cache_lru_promotion():
    cache = SegmentCache(segment_units=10, entries=2)
    cache.access(0)
    cache.access(10)
    cache.access(0)  # promote segment 0
    cache.access(20)  # evicts segment 1, not 0
    assert cache.access(0)
    assert not cache.access(10)


def test_segment_cache_hit_rate():
    cache = SegmentCache(segment_units=10, entries=4)
    assert cache.hit_rate() == 0.0
    cache.access(0)
    cache.access(1)
    assert cache.hit_rate() == pytest.approx(0.5)
