"""Unit tests for the block personality's mapping structures."""

import multiprocessing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockftl.mapping import UNMAPPED, PageMap, SegmentCache
from repro.core.experiment import build_block_rig, lab_geometry
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


# -- PageMap against a dict reference ------------------------------------------

#: 16 pages of four 4 KiB slots: 64 slots, fewer units than slots.
_GEOMETRY = Geometry(channels=1, dies_per_channel=1, planes_per_die=1,
                     blocks_per_plane=4, pages_per_block=4, page_bytes=16 * KIB)
_SPP = 4
_PAGES = 16
_SLOTS = _PAGES * _SPP
_PER_BLOCK = _GEOMETRY.pages_per_block * _SPP
_UNITS = 50


def _block_of(slot):
    return UNMAPPED if slot == UNMAPPED else slot // _PER_BLOCK


def _edged(last):
    """0, ``last`` and everything between: the complement encoding's
    edges are entry 0 (stored -1) and the last entry."""
    return st.one_of(st.sampled_from((0, last)), st.integers(0, last))


_unit = _edged(_UNITS - 1)
_page = _edged(_PAGES - 1)
_ops = st.one_of(
    st.tuples(st.just("bind"), st.one_of(_unit, st.sampled_from((-1, _UNITS))),
              _page, _edged(_SPP - 1)),
    st.tuples(st.just("bind_range"), _unit, st.integers(1, _SPP), _page),
    st.tuples(st.just("bind_full_pages"), _unit,
              st.lists(_page, max_size=3, unique=True)),
    st.tuples(st.just("release"), st.one_of(_unit, st.just(_UNITS))),
)


class _Reference:
    """Unit -> slot and slot -> unit as dicts; each method returns what
    :class:`PageMap` must, or the message of the AddressError it must
    raise (naming a plain unit, never its stored complement)."""

    def __init__(self):
        self.forward, self.reverse = {}, {}

    def _unit_error(self, *units):
        for unit in units:
            if not 0 <= unit < _UNITS:
                return f"map unit {unit} out of range [0, {_UNITS})"
        return None

    def _bind_run(self, unit_start, slots):
        for slot in slots:
            if slot in self.reverse:
                return f"slot {slot} already holds unit {self.reverse[slot]}"
        old = [self.forward.get(unit_start + i, UNMAPPED) for i in range(len(slots))]
        for slot in old:
            self.reverse.pop(slot, None)
        for i, slot in enumerate(slots):
            self.forward[unit_start + i] = slot
            self.reverse[slot] = unit_start + i
        return old

    def bind(self, unit, page, slot):
        old = self._unit_error(unit) or self._bind_run(unit, [page * _SPP + slot])
        return old if isinstance(old, str) else _block_of(old[0])

    def bind_range(self, unit_start, count, page):
        return self._unit_error(unit_start, unit_start + count - 1) or \
            self._bind_run(unit_start, [page * _SPP + i for i in range(count)])

    def bind_full_pages(self, unit_start, pages):
        slots = [page * _SPP + i for page in pages for i in range(_SPP)]
        if not slots:
            return []
        return self._unit_error(unit_start, unit_start + len(slots) - 1) or \
            self._bind_run(unit_start, slots)

    def release(self, unit):
        error = self._unit_error(unit)
        if error or unit not in self.forward:
            return error or UNMAPPED
        slot = self.forward.pop(unit)
        del self.reverse[slot]
        return _block_of(slot)


def _apply(pagemap, op):
    name, unit, *args = op
    try:
        if name == "bind":
            page, slot = args
            return pagemap.bind(unit, *divmod(page, _GEOMETRY.pages_per_block), slot)
        if name == "bind_range":
            count, page = args
            return pagemap.bind_range(
                unit, count, *divmod(page, _GEOMETRY.pages_per_block)
            ).tolist()
        if name == "bind_full_pages":
            bases = np.asarray(args[0], dtype=np.int64) * _SPP
            return pagemap.bind_full_pages(unit, bases).tolist()
        return pagemap.release(unit)
    except AddressError as exc:
        return str(exc)


@given(st.lists(_ops, max_size=40))
@example([("bind", 0, 0, 0), ("bind", _UNITS - 1, _PAGES - 1, _SPP - 1),
          ("bind_range", 0, _SPP, _PAGES - 1), ("release", _UNITS - 1),
          ("bind_full_pages", _UNITS - 2 * _SPP, [0, 1])])
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_page_map_agrees_with_a_dict_reference(ops):
    pagemap = PageMap(_GEOMETRY, 4 * KIB, _UNITS)
    reference = _Reference()
    for op in ops:
        assert _apply(pagemap, op) == getattr(reference, op[0])(*op[1:]), op
        assert pagemap.mapped_units == len(reference.forward)
    for unit in range(_UNITS):
        assert pagemap.lookup(unit) == reference.forward.get(unit, UNMAPPED)
        assert pagemap.is_mapped(unit) == (unit in reference.forward)
    for slot in range(_SLOTS):
        assert pagemap.unit_at(slot) == reference.reverse.get(slot, UNMAPPED)
    assert list(pagemap.iter_mapped()) == [
        (reference.reverse[slot], *pagemap.unflatten(slot))
        for slot in sorted(reference.reverse)
    ]
    for block in range(_GEOMETRY.total_blocks):
        assert pagemap.live_units_in_block(block) == [
            (reference.reverse[slot], *divmod(slot - block * _PER_BLOCK, _SPP))
            for slot in sorted(reference.reverse) if _block_of(slot) == block
        ]


def _overwrite_and_trim(device, parent_forward):
    """A forked child's writes: refill a quarter, trim every third unit of
    the primed half, and fail unless its own map changed."""
    device.prime_sequential_fill(device.n_units // 4, 0)
    for unit in range(0, device.n_units // 2, 3):
        device.pagemap.release(unit)
    if (device.pagemap._forward == parent_forward).all():
        raise AssertionError("the child's writes did not reach its map")


def test_a_forked_child_writes_its_own_copy_of_the_map():
    """The tables are a private mapping: a rig built before a fork keeps
    its map while the child overwrites and trims its copy (a shared one
    would show the parent the child's writes)."""
    device = build_block_rig(lab_geometry(4)).device
    device.prime_sequential_fill(device.n_units // 2)
    pagemap = device.pagemap
    forward, reverse = pagemap._forward.copy(), pagemap._reverse.copy()
    child = multiprocessing.get_context("fork").Process(
        target=_overwrite_and_trim, args=(device, forward)
    )
    child.start()
    child.join(timeout=120)
    assert not child.is_alive() and child.exitcode == 0
    assert (pagemap._forward == forward).all()
    assert (pagemap._reverse == reverse).all()


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
