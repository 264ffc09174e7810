"""Tests for the prefix-iteration surface (SNIA iterators)."""

import pytest

from repro.core.experiment import build_kv_rig, lab_geometry
from repro.errors import ConfigurationError
from repro.kvbench.generators import (
    SCAN_MIX_LENGTH,
    ExpirySpec,
    ScanMixSpec,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.runner import execute_workload
from repro.kvbench.traces import TraceWorkload, merge_traces
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec
from repro.kvftl.iterator import IteratorBuckets
from repro.kvftl.keyhash import iterator_bucket
from repro.kvftl.population import KeyScheme


def run(rig, generator):
    return rig.env.run_until_complete(rig.env.process(generator))


def test_iterate_returns_prefix_matches_sorted():
    rig = build_kv_rig(lab_geometry(4))

    def session(env):
        for i in (3, 1, 2):
            yield env.process(rig.api.store(b"pref-key-%07d" % i, 128))
        yield env.process(rig.api.store(b"othr-key-0000001", 128))
        keys = yield env.process(rig.api.iterate(b"pref"))
        return keys

    keys = run(rig, session(rig.env))
    assert keys == [b"pref-key-%07d" % i for i in (1, 2, 3)]


def test_iterate_sees_primed_population():
    rig = build_kv_rig(lab_geometry(4))
    scheme = KeyScheme(prefix=b"popl", digits=12)
    rig.device.fast_fill(500, 256, scheme)

    def session(env):
        keys = yield env.process(rig.api.iterate(b"popl", limit=1000))
        return keys

    keys = run(rig, session(rig.env))
    assert len(keys) == 500
    assert keys[0] == scheme.key_for(0)


def test_iterate_excludes_deleted_pairs():
    rig = build_kv_rig(lab_geometry(4))

    def session(env):
        for i in range(4):
            yield env.process(rig.api.store(b"delt-key-%07d" % i, 64))
        yield env.process(rig.api.delete(b"delt-key-0000002"))
        keys = yield env.process(rig.api.iterate(b"delt"))
        return keys

    keys = run(rig, session(rig.env))
    assert b"delt-key-0000002" not in keys
    assert len(keys) == 3


def test_iterate_respects_limit():
    rig = build_kv_rig(lab_geometry(4))
    scheme = KeyScheme(prefix=b"many", digits=12)
    rig.device.fast_fill(300, 64, scheme)

    def session(env):
        keys = yield env.process(rig.api.iterate(b"many", limit=10))
        return keys

    assert len(run(rig, session(rig.env))) == 10


def test_iterate_limit_keeps_the_smallest_keys_beside_stored_ones():
    """Re-storing primed pairs makes them records; the records must not
    use up ``limit`` before the primed range is walked, or the answer
    skips the population's smaller keys."""
    rig = build_kv_rig(lab_geometry(4))
    scheme = KeyScheme(prefix=b"popl", digits=4)
    rig.device.fast_fill(100, 256, scheme)

    def session(env):
        for i in range(90, 100):
            yield env.process(rig.api.store(scheme.key_for(i), 256))
        keys = yield env.process(rig.api.iterate(b"popl", limit=5))
        return keys

    assert run(rig, session(rig.env)) == [scheme.key_for(i) for i in range(5)]


def test_iterate_a_population_whose_prefix_is_shorter_than_a_bucket():
    """``k`` + 4 digits: a key's bucket is ``k`` and its first three
    digits, so the fill spans 21 buckets (the last one partial) and an
    iterator walks only the keys its 4 bytes name."""
    rig = build_kv_rig(lab_geometry(4))
    scheme = KeyScheme(prefix=b"k", digits=4)
    rig.device.fast_fill(205, 512, scheme)
    buckets = rig.device.iterators
    assert buckets.buckets() == [b"k%03d" % lead for lead in range(21)]
    assert [buckets.bucket_count(b) for b in buckets.buckets()] == [10] * 20 + [5]

    def session(env):
        first = yield env.process(rig.api.iterate(b"k000", limit=50))
        second = yield env.process(rig.api.iterate(b"k001"))
        yield env.process(rig.api.delete(scheme.key_for(12)))
        after = yield env.process(rig.api.iterate(b"k001"))
        tail = yield env.process(rig.api.iterate(b"k020"))
        foreign = yield env.process(rig.api.iterate(b"kx00"))
        return first, second, after, tail, foreign

    first, second, after, tail, foreign = run(rig, session(rig.env))
    assert first == [scheme.key_for(i) for i in range(10)]
    assert second == [scheme.key_for(i) for i in range(10, 20)]
    assert after == [scheme.key_for(i) for i in range(10, 20) if i != 12]
    assert buckets.bucket_count(b"k001") == 9
    assert tail == [scheme.key_for(i) for i in range(200, 205)]
    assert foreign == []


def test_iterate_validates_prefix():
    rig = build_kv_rig(lab_geometry(4))
    with pytest.raises(ConfigurationError):
        run(rig, rig.device.iterate(b"toolong"))
    with pytest.raises(ConfigurationError):
        run(rig, rig.device.iterate(b"abcd", limit=0))


def test_iterate_cost_scales_with_bucket_size():
    rig = build_kv_rig(lab_geometry(4))
    big_scheme = KeyScheme(prefix=b"bigb", digits=12)
    rig.device.fast_fill(20_000, 64, big_scheme)

    def timed(env, prefix):
        started = env.now
        yield env.process(rig.api.iterate(prefix, limit=5))
        return env.now - started

    def store_one(env):
        yield env.process(rig.api.store(b"tiny-key-0000001", 64))

    run(rig, store_one(rig.env))
    small = run(rig, timed(rig.env, b"tiny"))
    large = run(rig, timed(rig.env, b"bigb"))
    assert large > small  # more bucket pages to walk


# ---------------------------------------------------------------------------
# Iterator buckets under trace-generated churn (ISSUE 10)
# ---------------------------------------------------------------------------


def test_bucket_accounting_matches_model_dict_under_expiry_churn():
    """Drive the bucket accountant with a multi-prefix insert/delete
    stream and cross-check every count against a plain model dict."""
    buckets = IteratorBuckets(flush_keys=16)
    model = {}
    flushes = 0
    streams = [
        generate_expiry(ExpirySpec(
            n_ops=120, population=40, ttl_us=900.0,
            key_scheme=KeyScheme(prefix=b"exp%d" % i, digits=12),
            seed=9 + i,
        ))
        for i in range(3)
    ]
    for record in merge_traces(*streams):
        bucket = iterator_bucket(record.key)
        if record.op == "insert":
            pages = buckets.note_store(record.key)
            assert pages in (0, 1)
            flushes += pages
            model[bucket] = model.get(bucket, 0) + 1
        elif record.op == "delete":
            buckets.note_delete(record.key)
            model[bucket] -= 1
            if model[bucket] == 0:
                del model[bucket]
        # reads/updates never change bucket membership
        assert buckets.total_keys == sum(model.values())
    assert buckets.buckets() == sorted(model)
    for bucket, count in model.items():
        assert buckets.bucket_count(bucket) == count
    assert buckets.bucket_page_writes == flushes > 0


def test_bucket_delete_from_empty_bucket_is_an_error():
    buckets = IteratorBuckets(flush_keys=8)
    with pytest.raises(ConfigurationError, match="empty iterator bucket"):
        buckets.note_delete(b"ghst-key")
    buckets.note_store(b"once-key")
    buckets.note_delete(b"once-key")
    with pytest.raises(ConfigurationError, match="empty iterator bucket"):
        buckets.note_delete(b"once-key")


def test_bucket_bulk_registration_settles_flush_debt():
    buckets = IteratorBuckets(flush_keys=10)
    buckets.note_bulk(b"blk-key-0000", 25)
    assert buckets.bucket_count(iterator_bucket(b"blk-key-0000")) == 25
    assert buckets.bucket_page_writes == 2  # 25 // 10
    with pytest.raises(ConfigurationError, match="bulk count"):
        buckets.note_bulk(b"blk-key-0000", 0)


def test_scan_heavy_replay_drives_buckets_and_iterator_correctness():
    """The scan-mix generator through the YCSB driver: every scan walks
    the device's iterator buckets, the bucket census still matches the
    prefilled population, and iteration agrees with a model dict."""
    rig = build_kv_rig(lab_geometry(8))
    scheme = KeyScheme(prefix=b"scn-", digits=12)
    population = 300
    rig.device.fast_fill(population, 256, scheme)
    spec = ScanMixSpec(
        n_ops=250, population=population, scan_fraction=0.3,
        key_scheme=scheme, seed=21,
    )
    records = list(generate_scan_mix(spec))
    workload = TraceWorkload(records, key_scheme=scheme)
    assert workload.has_scans()
    driver = YCSBDriver(
        rig.adapter,
        YCSBSpec(workload="E", n_ops=250, population=population,
                 key_scheme=scheme, value_bytes=256,
                 scan_length=SCAN_MIX_LENGTH, seed=21),
    )
    result = execute_workload(rig.env, driver, workload.operations(),
                              queue_depth=4, name="scanmix")
    assert result.failed_ops == 0
    assert result.completed_ops == 250
    assert driver.scans_run == sum(1 for r in records if r.op == "scan") > 0
    # Reads/updates/scans never change bucket membership: the census
    # still shows exactly the prefilled population in one bucket.
    buckets = rig.device.iterators
    assert buckets.total_keys == population
    assert buckets.bucket_count(iterator_bucket(scheme.key_for(0))) == \
        population
    # Iterator correctness against the model: the device enumerates
    # exactly the prefilled keys, sorted.
    def session(env):
        keys = yield env.process(rig.api.iterate(b"scn-", limit=1000))
        return keys

    keys = run(rig, session(rig.env))
    assert keys == sorted(scheme.key_for(i) for i in range(population))
