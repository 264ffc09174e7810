"""Unit tests for the global hash index, index managers, and iterators,
and the index-region flash traffic of the merge engine."""

import hashlib
from itertools import chain

import pytest

from repro.core.experiment import build_kv_rig
from repro.errors import ConfigurationError
from repro.flash.geometry import Geometry
from repro.flash.timing import READ_US
from repro.kvftl.config import MERGE_BATCH, KVSSDConfig
from repro.kvftl.hashindex import GlobalHashIndex
from repro.kvftl.indexmanager import BloomModel
from repro.kvftl.iterator import IteratorBuckets
from repro.kvftl.population import KeyScheme
from repro.trace.tracer import Tracer
from repro.units import KIB, MIB

PAGE = 32 * KIB


def make_index(dram_bytes=4 * MIB):
    return GlobalHashIndex(PAGE, dram_bytes)


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
    index = GlobalHashIndex(PAGE, 64 * KIB)
    for _ in range(MERGE_BATCH + 24):
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


# -- index-region traffic -------------------------------------------------------

#: Eight pages a block, so one merge batch's pages cross region blocks.
REGION_GEOMETRY = Geometry(
    channels=4, dies_per_channel=2, planes_per_die=2, blocks_per_plane=16,
    pages_per_block=8, page_bytes=PAGE,
)


def test_region_pages_round_robin():
    """The region cursor walks every page of every region block once per
    rotation, block by block, and starts over: one more page than the
    region holds reads its first block again."""
    tracer = Tracer()
    with build_kv_rig(REGION_GEOMETRY, tracer=tracer) as rig:
        region, per_block = rig.device._index_region, REGION_GEOMETRY.pages_per_block
        rig.env.run_until_complete(rig.env.process(
            rig.device.merge.region_io(len(region) * per_block + 1)
        ), limit=1e9)
    blocks = [r.args["block"] for r in tracer.collector.records() if r.name == "read"]
    assert blocks == [block for block in region for _ in range(per_block)] + region[:1]


def _merge_then_retrieve(tracer=None):
    """One merge batch and one retrieve of a stored pair, both on flash:
    the index outgrows its 4 KiB of DRAM.  Returns the device, the batch's
    work, the retrieve's lookup reads and the counters before, after the
    batch and after the retrieve."""
    scheme = KeyScheme(b"key-", 12)
    config = KVSSDConfig(index_dram_bytes=4096)
    with build_kv_rig(REGION_GEOMETRY, config=config, tracer=tracer) as rig:
        env, device, stats = rig.env, rig.device, rig.device.stats
        rig.prime(20_000, 512, scheme)
        target = next(key for key in map(scheme.key_for, range(20_000))
                      if device.index.lookup_flash_reads(key))
        env.run_until_complete(env.process(device.store(target, 512)), limit=1e9)
        rig.drain()
        batches = []
        take = device.index.take_merge_batch
        device.index.take_merge_batch = lambda: batches.append(take()) or batches[-1]

        def counters():
            return (stats.index_flash_reads, stats.index_flash_writes,
                    stats.flash_reads, stats.flash_programs, stats.flash_busy_us)

        def settle():
            yield env.sleep(1e6)

        before = counters()
        for _ in range(MERGE_BATCH - 1):
            device.index.note_update()
        device.merge.kick_if_dirty()
        env.run_until_complete(env.process(settle()), limit=env.now + 2e6)
        merged = counters()
        value = env.run_until_complete(
            env.process(device.retrieve(target)), limit=env.now + 1e6
        )
        assert value == 512 and len(batches) == 1
        lookups = device.index.lookup_flash_reads(target)
        return device, batches[0], lookups, (before, merged, counters())


def test_region_traffic_is_the_batch_and_the_lookup_exactly():
    device, work, lookups, (before, merged, after) = _merge_then_retrieve()
    reads, writes = work.page_reads, work.page_writes
    assert reads == writes > 0 and lookups > 0
    xfer = device.array.transfer_us(PAGE)
    # The batch: reads and writes on the region only, reads timed.
    assert [m - b for m, b in zip(merged[:4], before[:4])] == [reads, writes, reads, 0]
    assert merged[4] - before[4] == pytest.approx(reads * (READ_US + xfer), rel=1e-12)
    # The retrieve: its index pages, then the pair's one data page.
    fragment = device.layout_for(16, 512).fragments[0]
    assert [a - m for a, m in zip(after[:4], merged[:4])] == [lookups, 0, lookups + 1, 0]
    assert after[4] - merged[4] == pytest.approx(
        lookups * (READ_US + xfer) + READ_US + device.array.transfer_us(fragment),
        rel=1e-12,
    )


def test_region_pages_go_round_robin_and_trace_as_before(pin):
    """Traced, the same run leaves the same counters; its index-region
    reads take the region's pages in order — the batch's reads, its
    writes, then the lookup's — and every flash span is pinned."""
    untraced = _merge_then_retrieve()
    tracer = Tracer()
    device, work, lookups, counters = _merge_then_retrieve(tracer)
    assert (work, lookups, counters) == untraced[1:]
    region = device._index_region
    per_block = REGION_GEOMETRY.pages_per_block
    slots = chain(range(work.page_reads),
                  range(2 * work.page_reads, 2 * work.page_reads + lookups))
    flash = [r for r in tracer.collector.records() if r.cat == "flash"]
    assert [r.args["block"] for r in flash
            if r.name == "read" and r.args["block"] in region] == [
        region[slot // per_block % len(region)] for slot in slots]
    digest = hashlib.sha256(repr([
        (r.track, r.name, r.ts, r.dur, r.args) for r in flash
    ]).encode()).hexdigest()
    pin("identity.spans.index_region", digest)
