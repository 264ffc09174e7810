"""Unit tests for the global hash index, index managers, and iterators."""

import pytest

from repro.errors import ConfigurationError
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.hashindex import GlobalHashIndex
from repro.kvftl.indexmanager import BloomModel
from repro.kvftl.iterator import IteratorBuckets
from repro.units import KIB, MIB

PAGE = 32 * KIB


def make_index(dram_bytes=4 * MIB, config=None):
    config = config or KVSSDConfig()
    return GlobalHashIndex(
        config, PAGE, dram_bytes, region_blocks=[0, 1, 2], pages_per_block=16
    )


# -- size model ----------------------------------------------------------------


def test_index_grows_linearly_with_entries():
    index = make_index()
    index.prime_entries(1000)
    small = index.index_bytes
    index.prime_entries(1000)
    assert index.index_bytes == 2 * small


def test_resident_fraction_clamps_at_one():
    index = make_index(dram_bytes=1 * MIB)
    index.prime_entries(100)
    assert index.resident_fraction() == 1.0


def test_resident_fraction_drops_past_dram():
    index = make_index(dram_bytes=64 * KIB)
    index.prime_entries(1_000_000)
    fraction = index.resident_fraction()
    assert 0.0 < fraction < 0.1


def test_lookup_flash_reads_zero_when_resident():
    index = make_index(dram_bytes=64 * MIB)
    index.prime_entries(1000)
    assert index.lookup_flash_reads(b"any-key") == 0


def test_lookup_flash_reads_positive_when_overflowed():
    index = make_index(dram_bytes=64 * KIB)
    index.prime_entries(5_000_000)
    reads = [
        index.lookup_flash_reads(b"key-%06d" % i) for i in range(300)
    ]
    assert any(r > 0 for r in reads)
    # Deep index: non-resident lookups walk two levels.
    assert max(reads) == 2


def test_resident_index_answers_without_hashing(monkeypatch):
    """Fully resident: the answer is 0 whatever the key hashes to — also
    for a hash fraction that rounds to exactly 1.0 — so the pure-Python
    FNV is not run at all."""
    import repro.kvftl.hashindex as hashindex

    def no_hashing(key):
        raise AssertionError("a resident index must not hash the key")

    index = make_index(dram_bytes=64 * MIB)
    index.prime_entries(1000)
    monkeypatch.setattr(hashindex, "hash_fraction", no_hashing)
    assert [index.lookup_flash_reads(b"key-%d" % i) for i in range(50)] == [0] * 50
    monkeypatch.setattr(hashindex, "hash_fraction", lambda key: 1.0)
    assert index.lookup_flash_reads(b"top-of-the-hash-range") == 0


def test_overflowed_index_lookups_unchanged():
    """Values read off the tree before lookups tested residency first."""
    index = make_index(dram_bytes=64 * KIB)
    index.prime_entries(4_000)
    assert index.resident_fraction() == pytest.approx(0.5251282051282051)
    reads = [index.lookup_flash_reads(b"user%08d" % (k * 7919)) for k in range(32)]
    assert reads == [1, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0, 0, 1,
                     0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1]


# -- merge model ----------------------------------------------------------------


def test_merge_free_when_index_resident():
    index = make_index(dram_bytes=64 * MIB)
    for _ in range(64):
        index.note_insert()
    work = index.take_merge_batch()
    assert work.page_reads == 0
    assert work.page_writes == 0
    assert index.dirty_entries == 0


def test_merge_expensive_when_overflowed():
    index = make_index(dram_bytes=64 * KIB)
    index.prime_entries(5_000_000)
    for _ in range(64):
        index.note_insert()
    work = index.take_merge_batch()
    # Nearly every entry in the batch dirties its own non-resident page.
    assert work.page_writes > 40
    assert work.page_reads > 40


def test_merge_batch_consumes_at_most_batch_size():
    config = KVSSDConfig(merge_batch=16)
    index = GlobalHashIndex(config, PAGE, 64 * KIB, [0], 16)
    for _ in range(40):
        index.note_insert()
    index.take_merge_batch()
    assert index.dirty_entries == 24


def test_merge_empty_is_noop():
    index = make_index()
    work = index.take_merge_batch()
    assert (work.page_reads, work.page_writes) == (0, 0)


def test_delete_decrements_entries():
    index = make_index()
    index.note_insert()
    index.note_delete()
    assert index.entries == 0
    with pytest.raises(ConfigurationError):
        index.note_delete()


def test_region_pages_round_robin():
    index = make_index()
    first = index.next_region_page()
    second = index.next_region_page()
    assert first != second
    total = 3 * 16
    pages = {index.next_region_page() for _ in range(total)}
    assert len(pages) == total  # full rotation visits every region page


# -- bloom filter -------------------------------------------------------------------


def test_bloom_never_false_negative():
    bloom = BloomModel(0.01)
    for i in range(500):
        assert bloom.maybe_present(b"key-%06d" % i, actually_present=True)


def test_bloom_false_positive_rate_close_to_config():
    bloom = BloomModel(0.05)
    hits = sum(
        1
        for i in range(5000)
        if bloom.maybe_present(b"absent-%06d" % i, actually_present=False)
    )
    assert 0.02 < hits / 5000 < 0.09


def test_bloom_zero_rate_always_negative():
    bloom = BloomModel(0.0)
    assert not bloom.maybe_present(b"nope", actually_present=False)


# -- iterator buckets ------------------------------------------------------------------


def test_iterator_buckets_group_by_prefix():
    buckets = IteratorBuckets(flush_keys=1000)
    buckets.note_store(b"abcd-1")
    buckets.note_store(b"abcd-2")
    buckets.note_store(b"wxyz-1")
    assert buckets.bucket_count(b"abcd") == 2
    assert buckets.bucket_count(b"wxyz") == 1
    assert buckets.buckets() == [b"abcd", b"wxyz"]
    assert buckets.total_keys == 3


def test_iterator_flush_cadence():
    buckets = IteratorBuckets(flush_keys=4)
    flushes = sum(buckets.note_store(b"pfx-%d" % i) for i in range(12))
    assert flushes == 3
    assert buckets.bucket_page_writes == 3


def test_iterator_delete_shrinks_and_guards():
    buckets = IteratorBuckets(flush_keys=10)
    buckets.note_store(b"abcd-1")
    buckets.note_delete(b"abcd-1")
    assert buckets.bucket_count(b"abcd") == 0
    with pytest.raises(ConfigurationError):
        buckets.note_delete(b"abcd-1")


def test_iterator_bulk_counts():
    buckets = IteratorBuckets(flush_keys=100)
    buckets.note_bulk(b"fill-000", 1000)
    assert buckets.bucket_count(b"fill") == 1000
    assert buckets.bucket_page_writes == 10
