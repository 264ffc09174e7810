"""Integration tests for the KV-SSD personality."""

import random

import pytest

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.core.experiment import build_kv_rig, lab_geometry
from repro.errors import (
    CapacityLimitError,
    ConfigurationError,
    InvalidKeyError,
    InvalidValueError,
    KeyNotFoundError,
)
from repro.flash.geometry import Geometry
from repro.ftl.core import GC_RESERVE_BLOCKS, GC_THRESHOLD_FRACTION, HOST_INTERFACE_US
from repro.kvftl.blob import blobs_per_page, layout_blob
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.kvftl.population import KeyScheme, run_pages
from repro.sim.engine import Environment
from repro.units import KIB, MIB


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
    ssd = KVSSD(env, geometry, config=KVSSDConfig(**config_kwargs))
    return env, ssd


def run(env, generator, limit_delta=600e6):
    process = env.process(generator)
    return env.run_until_complete(process, limit=env.now + limit_delta)


def key(i):
    return b"testkey-%08d" % i


def test_store_retrieve_roundtrip():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.store(key(1), 4096))
        value = yield env.process(ssd.retrieve(key(1)))
        return value

    assert run(env, proc(env)) == 4096
    assert ssd.live_kvps == 1


def test_retrieve_absent_raises():
    env, ssd = make_ssd()
    with pytest.raises(KeyNotFoundError):
        run(env, ssd.retrieve(key(404)))


def test_exist_truth():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.store(key(1), 100))
        present = yield env.process(ssd.exist(key(1)))
        absent = yield env.process(ssd.exist(key(2)))
        return present, absent

    assert run(env, proc(env)) == (True, False)


def test_delete_removes_pair():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.store(key(1), 512))
        yield env.process(ssd.drain())
        yield env.process(ssd.delete(key(1)))

    run(env, proc(env))
    assert ssd.live_kvps == 0
    assert not ssd.contains(key(1))
    with pytest.raises(KeyNotFoundError):
        run(env, ssd.retrieve(key(1)))


def _delete_racing_a_store(stored_first):
    """Start a delete and a store of one primed key at the same instant.

    The index outgrows its 4 KiB of DRAM, so the delete reads index pages
    from flash after its first lookup, and the store replaces the copy it
    found meanwhile.  ``stored_first`` overwrites the primed pair (and
    settles it on flash) before the race, so the delete finds a record."""
    rig = build_kv_rig(
        lab_geometry(8), config=KVSSDConfig(index_dram_bytes=4096, invariants=True)
    )
    scheme = KeyScheme(b"key-", 12)
    rig.prime(200_000, 512, scheme)
    target = scheme.key_for(12345)
    if stored_first:
        run(rig.env, rig.api.store(target, 512))
        rig.drain()
    delete = rig.env.process(rig.api.delete(target))
    store = rig.env.process(rig.api.store(target, 512))
    rig.env.run_until_complete(
        rig.env.all_of([delete, store]), limit=rig.env.now + 600e6
    )
    rig.drain()  # checks the device's invariants
    return rig, target


@pytest.mark.parametrize("stored_first", [False, True], ids=["primed", "stored"])
def test_a_delete_racing_a_store_removes_the_copy_the_store_wrote(stored_first):
    """The delete resolves the key again after its waits: it removes the
    store's copy, once, and never retires the copy the store replaced a
    second time (a primed pair overridden twice, or a record's bytes
    invalidated twice on flash)."""
    rig, target = _delete_racing_a_store(stored_first)
    device = rig.device
    assert device.live_kvps == 199_999
    assert not device.contains(target)
    assert device.array.total_valid_bytes() == device.stats.device_bytes
    with pytest.raises(KeyNotFoundError):
        run(rig.env, rig.api.retrieve(target))


def test_a_retrieve_waiting_on_the_index_reads_the_copy_it_found_as_it_stands():
    """A retrieve finds a pair still in the pack queue, then waits on an
    index page; meanwhile a flush packs the pair and a store replaces it.
    The retrieve reads the copy it found where that copy went (a flash
    page read beside the index page), not the buffer it was in when
    found, and leaves no hold behind.  The times are where the three
    overlap on this geometry."""
    rig = build_kv_rig(lab_geometry(8), config=KVSSDConfig(index_dram_bytes=4096))
    env, device = rig.env, rig.device
    scheme = KeyScheme(b"key-", 12)
    rig.prime(200_000, 512, scheme)
    target = scheme.key_for(777)
    run(env, device.store(target, 4096))
    assert device.locations_of(target) == [None]
    retired = []
    invalidate = device._invalidate_live

    def watched(key, entry, primed):
        retired.append(key in device._held and entry & device._place_mask != 0)
        invalidate(key, entry, primed)

    device._invalidate_live = watched

    def at(delay, operation):
        yield env.timeout(delay)
        return (yield env.process(operation))

    reads = device.stats.flash_reads
    retrieve = env.process(at(1075.0, device.retrieve(target)))
    store = env.process(at(1195.0, device.store(target, 4096)))
    drain = env.process(device.drain())
    env.run_until_complete(env.all_of([drain, retrieve, store]), limit=env.now + 1e8)
    assert retrieve.value == 4096
    assert retired == [True]  # replaced while held, after it was packed
    assert device.stats.flash_reads - reads == 2  # the index page and the data
    assert device._held == device._retired == {}
    rig.close()


def test_update_replaces_and_reclaims_accounting():
    env, ssd = make_ssd()

    def proc(env):
        yield env.process(ssd.store(key(1), 1000))
        yield env.process(ssd.drain())
        yield env.process(ssd.store(key(1), 3000))
        yield env.process(ssd.drain())
        value = yield env.process(ssd.retrieve(key(1)))
        return value

    assert run(env, proc(env)) == 3000
    assert ssd.live_kvps == 1
    layout = ssd.layout_for(len(key(1)), 3000)
    assert ssd.stats.device_bytes == layout.footprint_bytes


def test_key_and_value_validation():
    env, ssd = make_ssd()
    with pytest.raises(InvalidKeyError):
        run(env, ssd.store(b"abc", 100))
    with pytest.raises(InvalidKeyError):
        run(env, ssd.store(b"x" * 300, 100))
    with pytest.raises(InvalidValueError):
        run(env, ssd.store(key(1), 3 * MIB))


def test_sequential_and_random_store_latency_identical():
    # The paper's central Fig. 2 finding: hashing removes any sequential
    # advantage on the KV device.
    env, ssd = make_ssd()

    def measure(env, keys):
        latencies = []
        for one in keys:
            started = env.now
            yield env.process(ssd.store(one, 4096))
            latencies.append(env.now - started)
        yield env.process(ssd.drain())
        return sum(latencies) / len(latencies)

    sequential = run(env, measure(env, [key(i) for i in range(200)]))
    order = list(range(200, 400))
    random.Random(3).shuffle(order)
    scattered = run(env, measure(env, [key(i) for i in order]))
    assert scattered == pytest.approx(sequential, rel=0.1)


def test_split_value_store_and_retrieve():
    env, ssd = make_ssd()
    big = 60 * KIB

    def proc(env):
        yield env.process(ssd.store(key(9), big))
        yield env.process(ssd.drain())
        value = yield env.process(ssd.retrieve(key(9)))
        return value

    assert run(env, proc(env)) == big
    locations = ssd.locations_of(key(9))
    assert len(ssd.layout_for(len(key(9)), big).fragments) == len(locations) > 1
    assert all(location is not None for location in locations)
    # Fragments land on distinct pages.
    assert len(set(locations)) == len(locations)


def test_split_store_slower_than_unsplit():
    env, ssd = make_ssd()

    def timed_store(env, one, value_bytes):
        started = env.now
        yield env.process(ssd.store(one, value_bytes))
        return env.now - started

    small = run(env, timed_store(env, key(1), 16 * KIB))
    large = run(env, timed_store(env, key(2), 32 * KIB))
    assert large > small + 100.0  # splitting penalty is material


def test_fast_fill_pairs_indistinguishable_from_stored():
    env, ssd = make_ssd()
    scheme = KeyScheme(prefix=b"fill", digits=12)
    population = ssd.fast_fill(5000, 512, scheme)
    assert ssd.live_kvps == 5000
    assert population.live_count == 5000

    def proc(env):
        value = yield env.process(ssd.retrieve(scheme.key_for(777)))
        yield env.process(ssd.store(scheme.key_for(777), 512))  # update
        yield env.process(ssd.drain())
        updated = yield env.process(ssd.retrieve(scheme.key_for(777)))
        yield env.process(ssd.delete(scheme.key_for(778)))
        return value, updated

    assert run(env, proc(env)) == (512, 512)
    assert ssd.live_kvps == 4999
    assert population.live_count == 4998  # 777 overridden, 778 deleted


def test_fast_fill_rejects_split_and_duplicates():
    env, ssd = make_ssd()
    scheme = KeyScheme(prefix=b"fill", digits=12)
    with pytest.raises(ConfigurationError):
        ssd.fast_fill(10, 30 * KIB, scheme)
    ssd.fast_fill(10, 512, scheme)
    with pytest.raises(ConfigurationError):
        ssd.fast_fill(10, 512, scheme)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
@pytest.mark.parametrize("config", [KVSSDConfig, BlockSSDConfig])
def test_both_personalities_refuse_a_gc_threshold_outside_0_1(
    config, fraction, monkeypatch
):
    """At 1.5 the threshold exceeds the device's block count, so the GC
    worker never rests; both devices refuse an edited shared fraction the
    same way, when their core is built."""
    device = {KVSSDConfig: KVSSD, BlockSSDConfig: BlockSSD}[config]
    geometry = make_ssd()[1].array.geometry
    monkeypatch.setattr("repro.ftl.core.GC_THRESHOLD_FRACTION", fraction)
    with pytest.raises(ConfigurationError, match="GC_THRESHOLD_FRACTION"):
        device(Environment(), geometry, config())


def test_both_personalities_share_one_gc_threshold():
    """Both cores take the GC threshold from the one shared fraction, and
    it sits strictly between the reserve and the block count, so the GC
    worker rests once the pool refills."""
    env, kv = make_ssd()
    block = BlockSSD(Environment(), kv.array.geometry)
    total = kv.array.geometry.total_blocks
    expected = max(GC_RESERVE_BLOCKS + 2, int(total * GC_THRESHOLD_FRACTION))
    assert kv.core.gc_threshold_blocks == block.core.gc_threshold_blocks == expected
    assert GC_RESERVE_BLOCKS < expected < total


def test_fast_fill_stops_where_the_digits_run_out():
    """``key_for`` never truncates: pair 1000 of a 3-digit scheme would get
    a 4-digit key that ``index_of`` rejects, primed but unfindable."""
    scheme = KeyScheme(prefix=b"k", digits=3)
    env, ssd = make_ssd()
    with pytest.raises(ConfigurationError, match="3-digit"):
        ssd.fast_fill(1001, 512, scheme)
    assert ssd.live_kvps == 0
    ssd.fast_fill(1000, 512, scheme)
    assert all(ssd.contains(scheme.key_for(pair)) for pair in range(1000))
    assert run(env, ssd.retrieve(scheme.key_for(999))) == 512


def test_layouts_are_kept_per_device_and_shape():
    """The cached layout is the computed one, and a device with another
    minimum allocation keeps its own."""
    env, coarse = make_ssd(min_alloc_bytes=4096)
    _env, fine = make_ssd()
    for ssd in (coarse, fine):
        run(ssd.env, ssd.store(key(1), 100))
        run(ssd.env, ssd.store(key(2), 100))
        run(ssd.env, ssd.store(key(3), 40 * KIB))
        for value_bytes in (100, 40 * KIB):
            shape = (len(key(1)), value_bytes)
            assert ssd.layout_for(*shape) is ssd._layouts[shape]
            assert ssd._layouts[shape] == layout_blob(
                *shape, ssd.array.geometry.page_bytes, ssd.config
            )
        assert len(ssd._layouts) == 2
    assert coarse.layout_for(len(key(1)), 100).footprint_bytes == 4096
    assert fine.layout_for(len(key(1)), 100).footprint_bytes == 1024
    assert coarse.stats.device_bytes - fine.stats.device_bytes == 2 * 3072
    # Validation still runs first on every call, cached shape or not.
    with pytest.raises(InvalidValueError):
        run(env, coarse.store(key(4), 3 * MIB))
    with pytest.raises(InvalidKeyError):
        run(env, coarse.store(b"k", 100))


def test_capacity_limit_enforced():
    env, ssd = make_ssd()
    scheme = KeyScheme(prefix=b"fill", digits=12)
    with pytest.raises(CapacityLimitError):
        ssd.fast_fill(ssd.max_kvps + 1, 512, scheme)


def test_space_amplification_small_values():
    env, ssd = make_ssd()
    ssd.fast_fill(1000, 50, KeyScheme(prefix=b"fill", digits=12))
    # 50 B values with 16 B keys: ~15.5x (paper: up to ~17-20x).
    assert 14.0 < ssd.stats.amplification() < 17.0


def test_gc_relocates_and_preserves_pairs():
    env, ssd = make_ssd(blocks_per_plane=4)
    scheme = KeyScheme(prefix=b"fill", digits=12)
    count = 3000  # ~16 blocks of 4 KiB blobs on this tiny geometry
    ssd.fast_fill(count, 4096, scheme)

    def churn(env):
        # Update a rotating subset until GC must run.
        for round_index in range(8):
            for i in range(0, count, 3):
                yield env.process(ssd.store(scheme.key_for(i), 4096))
        yield env.process(ssd.drain())

    run(env, churn(env))
    assert ssd.stats.gc_runs > 0
    assert ssd.live_kvps == count

    def verify(env):
        # Spot-check reads across primed, updated, and relocated pairs.
        sizes = []
        for i in (0, 1, 2, 3, count // 2, count - 1):
            value = yield env.process(ssd.retrieve(scheme.key_for(i)))
            sizes.append(value)
        return sizes

    assert run(env, verify(env)) == [4096] * 6


def _manifest_entries(ssd, block):
    """``block``'s manifest entries as tuples, in write order."""
    manifest = ssd._manifests.get(block)
    return [] if manifest is None else list(manifest.entries())


def _expand_fill_runs(ssd, pop_index, block):
    """The ``(page_seq, page)`` pairs the ``"pr"`` runs of one fill name in
    ``block``'s manifest, in manifest order."""
    return [
        pair
        for entry in _manifest_entries(ssd, block)
        if entry[0] == "pr" and entry[1] == pop_index
        for pair in run_pages(*entry[2:])
    ]


#: 512 B values pack 24 blobs to a page; a block has 32 pages.
_PER_PAGE = 24


@pytest.mark.parametrize("count,width,blocks_per_plane", [
    (1, 4, 4),  # one partial page
    (_PER_PAGE - 1, 1, 4),  # a one-block frontier, per-page path only
    (_PER_PAGE * 4 * 3 + 5, 4, 4),  # three rotations, a partial last page
    (_PER_PAGE * 32 * 16 * 2 + 17, 16, 4),  # two block generations close
    (_PER_PAGE * 32 * 3 + 1, 3, 8),  # a width that divides nothing
])
def test_fill_manifest_runs_are_exactly_the_page_maps(count, width, blocks_per_plane):
    """The exact oracle for the run-length manifests: expanding each
    block's runs yields exactly the fill pages the population's page maps
    place in that block, in ``page_seq`` order — for a first fill and for
    a second one that starts inside the first one's open blocks."""
    env, ssd = make_ssd(blocks_per_plane=blocks_per_plane, stream_width=width)
    first = ssd.fast_fill(count, 512, KeyScheme(prefix=b"one-", digits=12))
    second = ssd.fast_fill(count // 3 + 1, 512, KeyScheme(prefix=b"two-", digits=12))
    for pop_index, population in enumerate((first, second)):
        pages = len(population.page_blocks)
        assert pages == -(-population.count // population.blobs_per_page)
        assert len(population.page_indices) == pages
        for block in set(population.page_blocks) | set(ssd._manifests):
            expected = [
                (page_seq, population.page_indices[page_seq])
                for page_seq in range(pages)
                if population.page_blocks[page_seq] == block
            ]
            assert _expand_fill_runs(ssd, pop_index, block) == expected
            # One run per block per fill: a block's pages of a fill are
            # one arithmetic progression, so the runs merge.
            runs = [e for e in _manifest_entries(ssd, block) if e[1] == pop_index]
            assert len(runs) == (1 if expected else 0)


def test_primed_pairs_survive_overwrite_delete_and_gc_relocation():
    """The aged-device regime of the ``kv_gc_writes`` benchmark on a small
    geometry: a 4-wide frontier, a hot population taking every update
    beside a cold ballast.  Primed pairs are overwritten and deleted,
    updates drive GC until the primed runs (``"pr"``) have been censused
    and relocated pairs (``"p"``) censused and moved again, a few more
    primed pairs are deleted, and then every key is read back against a
    reference dict — value size or ``KeyNotFoundError``."""
    env, ssd = make_ssd(blocks_per_plane=8, stream_width=4, invariants=True)
    hot_scheme = KeyScheme(prefix=b"hot-", digits=12)
    cold_scheme = KeyScheme(prefix=b"cold", digits=12)
    geometry = ssd.array.geometry
    per_block = (
        blobs_per_page(16, 4096, geometry.page_bytes, ssd.config)
        * geometry.pages_per_block
    )
    hot = 8 * per_block
    cold = (ssd.free_block_count() - 8 - ssd.core.gc_threshold_blocks - 8) * per_block
    ssd.fast_fill(hot, 4096, hot_scheme)
    ssd.fast_fill(cold, 4096, cold_scheme)
    model = {hot_scheme.key_for(i): 4096 for i in range(hot)}
    model.update((cold_scheme.key_for(i), 4096) for i in range(cold))
    every_key = list(model)

    census, seen = ssd.gc_census, {"pr": 0, "p": 0, "moved again": 0}

    def watched_census(victim):
        for entry in _manifest_entries(ssd, victim):
            if entry[0] in seen:
                seen[entry[0]] += 1
        items = census(victim)
        for item in items:
            if item.ident[0] == "p":
                _tag, pop_index, pair = item.ident
                if pair in ssd._populations[pop_index].relocated:
                    seen["moved again"] += 1
        return items

    ssd.gc_census = watched_census
    rng = random.Random(11)

    def store(env, one, value_bytes):
        yield env.process(ssd.store(one, value_bytes))
        model[one] = value_bytes

    def delete(env, one):
        yield env.process(ssd.delete(one))
        del model[one]

    def session(env):
        for i in range(0, hot, 5):
            yield from store(env, hot_scheme.key_for(i), 1024)
        for i in range(3, hot, 7):
            if hot_scheme.key_for(i) in model:
                yield from delete(env, hot_scheme.key_for(i))
        for i in range(0, cold, 997):
            yield from delete(env, cold_scheme.key_for(i))
        for round_index in range(8_000):
            one = hot_scheme.key_for(rng.randrange(hot))
            yield from store(env, one, 2048 + 512 * (round_index % 3))
        yield env.process(ssd.drain())
        # Delete primed pairs the collector moved (still primed: an
        # update drops a pair from ``relocated``), and two more keys.
        moved = sorted(ssd._populations[0].relocated)
        for pair in moved[::4] + [1, 2]:
            one = hot_scheme.key_for(pair)
            if one in model:
                yield from delete(env, one)
        yield env.process(ssd.drain())

    run(env, session(env))
    assert ssd.stats.gc_runs >= 2
    assert seen["pr"] > 0 and seen["p"] > 0 and seen["moved again"] > 0
    assert ssd.live_kvps == len(model)

    def read_back(env):
        mismatches = []
        for one in every_key:
            try:
                got = yield env.process(ssd.retrieve(one))
            except KeyNotFoundError:
                got = None
            if got != model.get(one):
                mismatches.append((one, got, model.get(one)))
        return mismatches

    assert run(env, read_back(env)) == []


def test_valid_bytes_consistency_after_churn():
    env, ssd = make_ssd(blocks_per_plane=4)
    scheme = KeyScheme(prefix=b"fill", digits=12)
    count = 2000

    def churn(env):
        for i in range(count):
            yield env.process(ssd.store(scheme.key_for(i), 2048))
        for i in range(0, count, 2):
            yield env.process(ssd.store(scheme.key_for(i), 2048))
        yield env.process(ssd.drain())

    run(env, churn(env))
    # Array-level valid bytes equal the space accountant's device bytes.
    assert ssd.array.total_valid_bytes() == ssd.stats.device_bytes


def test_iterator_bucket_counts_follow_stores():
    env, ssd = make_ssd()

    def proc(env):
        for i in range(10):
            yield env.process(ssd.store(b"aaaa-%010d" % i, 100))
        for i in range(5):
            yield env.process(ssd.store(b"bbbb-%010d" % i, 100))

    run(env, proc(env))
    assert ssd.iterators.bucket_count(b"aaaa") == 10
    assert ssd.iterators.bucket_count(b"bbbb") == 5


def test_multi_command_key_costs_more_interface_time():
    env, ssd = make_ssd()

    def timed(env, ncommands):
        started = env.now
        yield env.process(ssd.store(key(1) if ncommands == 1 else key(2),
                                    1024, ncommands))
        return env.now - started

    one = run(env, timed(env, 1))
    two = run(env, timed(env, 2))
    assert two == pytest.approx(one + HOST_INTERFACE_US)
