"""Unit tests for key schemes and primed populations."""

import dataclasses
import pickle

import pytest

from repro.kvftl.population import KeyScheme, PrimedPopulation


# -- KeyScheme ---------------------------------------------------------------


def test_key_scheme_roundtrip():
    scheme = KeyScheme(prefix=b"key-", digits=12)
    for index in (0, 1, 999, 10**12 - 1):
        key = scheme.key_for(index)
        assert len(key) == scheme.key_bytes == 16
        assert scheme.index_of(key) == index


def test_key_scheme_rejects_foreign_keys():
    scheme = KeyScheme(prefix=b"key-", digits=12)
    assert scheme.index_of(b"other-000000001") is None
    assert scheme.index_of(b"key-abcdefghijkl") is None
    assert scheme.index_of(b"key-0001") is None  # wrong length


def test_key_scheme_negative_index_rejected():
    with pytest.raises(ValueError):
        KeyScheme().key_for(-1)


def test_key_scheme_refuses_an_index_its_digits_cannot_name():
    """zfill pads but never truncates: index 1000 under 3 digits would be
    a 5-byte key that ``index_of`` rejects."""
    scheme = KeyScheme(prefix=b"k", digits=3)
    assert scheme.key_for(999) == b"k999"
    with pytest.raises(ValueError, match=r"\[0, 1000\)"):
        scheme.key_for(1000)


def test_key_scheme_digits_validated():
    with pytest.raises(ValueError):
        KeyScheme(digits=0)


@pytest.mark.parametrize("prefix,digits", [(b"k", 4), (b"ab", 3), (b"key-", 2), (b"k", 2)])
def test_key_scheme_leads_name_contiguous_index_ranges(prefix, digits):
    """``indices_starting`` and ``lead_span`` against the keys themselves."""
    scheme = KeyScheme(prefix=prefix, digits=digits)
    keys = [scheme.key_for(i) for i in range(10 ** digits)]
    for lead in {key[:4] for key in keys} | {b"", b"k", b"kx00", b"zzzz", b"k0a"}:
        expected = [i for i, key in enumerate(keys) if key.startswith(lead)]
        assert list(scheme.indices_starting(lead)) == expected, lead
    # Runs of ``lead_span(4)`` indices are exactly the 4-byte groups.
    span = scheme.lead_span(4)
    for first in range(0, len(keys), span):
        assert len({key[:4] for key in keys[first:first + span]}) == 1
        if first:
            assert keys[first - 1][:4] != keys[first][:4]


def test_key_scheme_identity_ignores_its_derived_lengths():
    """``key_bytes`` is computed at construction; equality, hash and repr
    are still those of (prefix, digits) — sweep cache keys and worker
    processes carry schemes — and copies re-derive it."""
    scheme = KeyScheme(prefix=b"user", digits=8)
    assert repr(scheme) == "KeyScheme(prefix=b'user', digits=8)"
    assert scheme == KeyScheme(b"user", 8) != KeyScheme(b"user", 9)
    assert hash(scheme) == hash(KeyScheme(b"user", 8))
    assert len({scheme, KeyScheme(b"user", 8), KeyScheme(b"usr-", 8)}) == 2
    assert scheme.key_bytes == 12
    assert pickle.loads(pickle.dumps(scheme)) == scheme
    assert pickle.loads(pickle.dumps(scheme)).key_bytes == 12
    longer = dataclasses.replace(scheme, digits=20)
    assert (longer.prefix, longer.key_bytes) == (b"user", 24)
    assert longer.index_of(longer.key_for(7)) == 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        scheme.key_bytes = 13
    with pytest.raises(TypeError):
        KeyScheme(b"user", 8, 12)


# -- PrimedPopulation --------------------------------------------------------------


def make_population(count=100, blobs_per_page=10):
    population = PrimedPopulation(
        scheme=KeyScheme(prefix=b"fill", digits=12),
        count=count,
        value_bytes=512,
        footprint_bytes=1024,
        blobs_per_page=blobs_per_page,
    )
    pages = -(-count // blobs_per_page)
    for page_seq in range(pages):
        population.page_blocks.append(100 + page_seq)
        population.page_indices.append(page_seq % 4)
    return population


def test_location_arithmetic():
    population = make_population()
    assert population.page_of(0) == 0
    assert population.page_of(9) == 0
    assert population.page_of(10) == 1
    assert population.location_of(25) == (102, 2)


def test_lookup_by_key():
    population = make_population()
    key = population.scheme.key_for(42)
    assert population.lookup(key) == 42
    assert population.lookup(population.scheme.key_for(100)) is None
    assert population.lookup(b"unrelated-key-00") is None


def test_override_kills_primed_identity():
    population = make_population()
    population.override(42)
    assert population.lookup(population.scheme.key_for(42)) is None
    assert population.live_count == 99
    with pytest.raises(ValueError):
        population.override(42)


def test_relocation_changes_location():
    population = make_population()
    population.relocate(7, block=555, page=9)
    assert population.location_of(7) == (555, 9)
    # Other pairs keep their original placement.
    assert population.location_of(8) == (100, 0)


def test_relocate_overridden_rejected():
    population = make_population()
    population.override(7)
    with pytest.raises(ValueError):
        population.relocate(7, 1, 1)


def test_override_clears_relocation():
    population = make_population()
    population.relocate(7, 555, 9)
    population.override(7)
    assert 7 not in population.relocated


def test_indices_in_fill_page_handles_tail():
    population = make_population(count=25, blobs_per_page=10)
    assert list(population.indices_in_fill_page(0)) == list(range(10))
    assert list(population.indices_in_fill_page(2)) == [20, 21, 22, 23, 24]
    with pytest.raises(ValueError):
        population.indices_in_fill_page(3)


def test_index_bounds_checked():
    population = make_population()
    with pytest.raises(ValueError):
        population.location_of(100)
