"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import deque
from heapq import heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.block import BlockDeviceAPI
from repro.blockftl.device import BlockSSD
from repro.errors import KeyNotFoundError
from repro.faults.model import FaultConfig, FaultInjector
from repro.flash.geometry import Geometry
from repro.hostkv.hashkv.store import HashKVStore
from repro.kvbench.distributions import ZipfianGenerator, sliding_window_indices
from repro.kvftl.device import KVSSD
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment, set_pop_observer
from repro.sim.resources import Resource, TokenBucket
from repro.sim.signal import Signal
from repro.kvftl.blob import layout_blob, usable_page_bytes
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.keyhash import hash_fraction, iterator_bucket, key_hash64
from repro.kvftl.population import KeyScheme
from repro.metrics.latency import percentile
from repro.nvme.command import commands_for_key
from repro.units import KIB, align_up, ceil_div

CFG = KVSSDConfig()
PAGE = 32 * KIB


# -- units ---------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_align_up_properties(value, alignment):
    aligned = align_up(value, alignment)
    assert aligned >= value
    assert aligned % alignment == 0
    assert aligned - value < alignment


@given(st.integers(min_value=0, max_value=10**12),
       st.integers(min_value=1, max_value=10**6))
def test_ceil_div_properties(numerator, denominator):
    result = ceil_div(numerator, denominator)
    assert result * denominator >= numerator
    assert (result - 1) * denominator < numerator or result == 0


# -- blob layout ------------------------------------------------------------------


@given(st.integers(min_value=4, max_value=255),
       st.integers(min_value=0, max_value=2 * 1024 * 1024))
@settings(max_examples=300)
def test_layout_invariants(key_bytes, value_bytes):
    layout = layout_blob(key_bytes, value_bytes, PAGE, CFG)
    usable = usable_page_bytes(PAGE, CFG)
    # Footprint covers the raw blob and respects the minimum allocation.
    assert layout.footprint_bytes >= layout.raw_bytes
    assert layout.footprint_bytes >= CFG.min_alloc_bytes
    # Fragments partition the footprint and each fits a page.
    assert sum(layout.fragments) == layout.footprint_bytes
    assert all(0 < fragment <= usable for fragment in layout.fragments)
    # Split iff the raw blob exceeds the usable page area.
    assert layout.is_split == (layout.raw_bytes > usable)
    if layout.is_split:
        assert layout.data_fragments == ceil_div(layout.raw_bytes, usable)
        assert layout.offset_pages == layout.data_fragments - 1
    else:
        assert layout.fragments == [layout.footprint_bytes]


@given(st.integers(min_value=4, max_value=255),
       st.integers(min_value=0, max_value=64 * 1024))
def test_layout_monotone_in_value_size(key_bytes, value_bytes):
    smaller = layout_blob(key_bytes, value_bytes, PAGE, CFG)
    larger = layout_blob(key_bytes, value_bytes + 1, PAGE, CFG)
    assert larger.footprint_bytes >= smaller.footprint_bytes


# -- hashing ------------------------------------------------------------------------


@given(st.binary(min_size=1, max_size=255))
def test_hash_is_deterministic_and_bounded(key):
    assert key_hash64(key) == key_hash64(key)
    assert 0 <= key_hash64(key) < (1 << 64)
    assert 0.0 <= hash_fraction(key) < 1.0


@given(st.binary(min_size=4, max_size=64))
def test_iterator_bucket_is_prefix(key):
    bucket = iterator_bucket(key)
    assert len(bucket) == 4
    assert bucket == key[:4]


# -- key schemes -----------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10**9),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=10, max_value=14))
def test_key_scheme_bijective(index, prefix_len, digits):
    scheme = KeyScheme(prefix=b"p" * prefix_len, digits=digits)
    if index >= 10 ** digits:
        return  # out of representable range for this scheme
    key = scheme.key_for(index)
    assert scheme.index_of(key) == index
    assert len(key) == scheme.key_bytes


@given(st.binary(min_size=1, max_size=32))
def test_key_scheme_rejects_noise(noise):
    scheme = KeyScheme(prefix=b"key-", digits=12)
    recovered = scheme.index_of(noise)
    if recovered is not None:
        # Anything accepted must round-trip exactly.
        assert scheme.key_for(recovered) == noise


# -- NVMe commands -------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=255))
def test_command_count_monotone_in_key_size(key_bytes):
    assert commands_for_key(key_bytes) in (1, 2)
    if key_bytes > 16:
        assert commands_for_key(key_bytes) == 2


# -- distributions ----------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=500),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50)
def test_zipfian_draws_in_range(population, count, seed):
    generator = ZipfianGenerator(population, seed=seed)
    for index in generator.indices(count):
        assert 0 <= index < population


@given(st.integers(min_value=1, max_value=5000),
       st.integers(min_value=1, max_value=500),
       st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50)
def test_sliding_window_in_range(population, count, seed):
    for index in sliding_window_indices(population, count, seed=seed):
        assert 0 <= index < population


# -- percentiles ----------------------------------------------------------------------------------


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200),
       st.floats(min_value=0.0, max_value=1.0))
def test_percentile_bounded_and_monotone(samples, fraction):
    samples.sort()
    value = percentile(samples, fraction)
    epsilon = 1e-6 * max(1.0, abs(samples[-1]))
    assert samples[0] - epsilon <= value <= samples[-1] + epsilon
    if fraction < 1.0:
        assert percentile(samples, fraction) <= percentile(samples, 1.0) + epsilon


# -- firmware parity under faults ---------------------------------------------------------------------


def _parity_geometry():
    return Geometry(
        channels=4,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=8,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )


#: Corrected-only statistical faults: retries fire, but every read still
#: returns good data, so observable results must not change.
_LOW_FAULTS = FaultConfig(seed=3, read_corrected_prob=0.05)


def _parity_key(index):
    return b"parity-%06d" % index


def _run_ops(device_ops, env):
    """Drive the op list sequentially; returns the observation sequence."""
    results = []

    def driver():
        for apply_op in device_ops:
            try:
                outcome = yield from apply_op()
            except KeyNotFoundError:
                outcome = "missing"
            results.append(outcome)

    env.run_until_complete(env.process(driver()), limit=env.now + 600e6)
    return results


def _kv_observations(ops, fault_config):
    env = Environment()
    faults = FaultInjector(fault_config) if fault_config else None
    ssd = KVSSD(env, _parity_geometry(), faults=faults)

    def apply(op, index, value_bytes):
        def thunk():
            key = _parity_key(index)
            if op == "put":
                yield from ssd.store(key, value_bytes)
                return "ok"
            if op == "get":
                return (yield from ssd.retrieve(key))
            yield from ssd.delete(key)
            return "ok"
        return thunk

    return _run_ops([apply(*op) for op in ops], env)


def _hash_observations(ops, fault_config):
    env = Environment()
    faults = FaultInjector(fault_config) if fault_config else None
    device = BlockSSD(env, _parity_geometry(), faults=faults)
    driver = KernelDeviceDriver(env, CpuAccountant())
    store = HashKVStore(env, BlockDeviceAPI(env, device, driver))

    def apply(op, index, value_bytes):
        def thunk():
            key = _parity_key(index)
            if op == "put":
                yield from store.put(key, value_bytes)
                return "ok"
            if op == "get":
                return (yield from store.get(key))
            yield from store.delete(key)
            return "ok"
        return thunk

    return _run_ops([apply(*op) for op in ops], env)


_PARITY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.integers(min_value=0, max_value=19),
        st.sampled_from([100, 1000, 4096]),
    ),
    min_size=5,
    max_size=30,
)


@given(_PARITY_OPS)
@settings(max_examples=10, deadline=None)
def test_firmware_parity_with_and_without_faults(ops):
    """Both personalities agree on every op outcome, faults or not.

    The same random put/get/delete stream runs on the KV-SSD and on the
    hash store over a block-SSD, clean and under corrected-only fault
    injection.  All four runs must observe identical (outcome, value
    size) sequences: the personalities implement the same KV contract,
    and recovered media errors are invisible to the host.
    """
    kv_clean = _kv_observations(ops, None)
    hash_clean = _hash_observations(ops, None)
    assert kv_clean == hash_clean
    kv_faulty = _kv_observations(ops, _LOW_FAULTS)
    hash_faulty = _hash_observations(ops, _LOW_FAULTS)
    assert kv_faulty == kv_clean
    assert hash_faulty == hash_clean


# -- zero-time path: in-place grants, calls, parked waits vs a reference -------
#
# The reference below is the engine with nothing clever in it: one heap
# ordered by (time, seq), every resource and token grant queued as an
# event of its own, serve() as grant-yield then timeout-yield, every
# called child a process of its own, every process started by a bootstrap
# event, a sleep a timeout, a signal wait a plain event and a deadline
# park an any_of of a wait and a timeout.  The real engine must pop the
# same (time, seq) pairs of the same types in the same order, wake the
# processes in the same order, and count the same number of events, bar
# the deadline parks' losers.


class _Boom(Exception):
    """What a failing child raises."""


class _RefEvent:
    def __init__(self, env, kind="Event"):
        self.env, self.kind, self.callbacks = env, kind, []
        self.value, self.failed = None, False

    def succeed(self, value=None, delay=0.0):
        env = self.env
        heappush(env.heap, (env.now + delay, env.seq, self))
        env.seq += 1
        self.value = value
        return self

    def fail(self, exception):
        self.failed = True
        return self.succeed(exception)


class _RefEnv:
    def __init__(self):
        self.now, self.seq, self.processed_events = 0.0, 0, 0
        self.heap, self.pops = [], []

    def timeout(self, delay):
        return _RefEvent(self, "Timeout").succeed(delay=delay)

    sleep = timeout

    def process(self, generator):
        done = _RefEvent(self, "Process")

        def resume(event):
            try:
                if event.failed:
                    target = generator.throw(event.value)
                else:
                    target = generator.send(event.value)
            except StopIteration as stop:
                done.succeed(stop.value)
                return
            except _Boom as exc:
                done.fail(exc)
                return
            if target.callbacks is None:  # already processed: relay
                target = _RefEvent(self).succeed(target.value)
            target.callbacks.append(resume)

        _RefEvent(self).succeed().callbacks.append(resume)
        return done

    def call(self, generator):
        return (yield self.process(generator))

    def _condition(self, events, needed, kind):
        condition, fired = _RefEvent(self, kind), []

        def child(event):
            fired.append(event)
            if len(fired) == needed:
                condition.succeed()

        for event in events:
            if event.callbacks is None:
                child(event)
            else:
                event.callbacks.append(child)
        return condition

    def all_of(self, events):
        return self._condition(events, len(events), "AllOf")

    def any_of(self, events):
        return self._condition(events, 1, "AnyOf")

    def run(self):
        while self.heap:
            self.now, seq, event = heappop(self.heap)
            # (kind None: a deadline park's loser, which pops as nothing)
            self.pops.append((self.now, seq, event.kind))
            self.processed_events += 1
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)


class _RefResource:
    def __init__(self, env, capacity):
        self.env, self.free, self.waiting = env, capacity, deque()

    def serve(self, duration):
        grant = _RefEvent(self.env, "Request")
        if self.free and not self.waiting:
            self.free -= 1
            grant.succeed()
        else:
            self.waiting.append(grant)
        yield grant
        yield self.env.timeout(duration)
        if self.waiting:
            self.waiting.popleft().succeed()
        else:
            self.free += 1


def _serve(resource, duration):
    """The real engine's form of what _RefResource.serve spells out."""
    yield resource.serve(duration)


class _RefSignal:
    def __init__(self, env):
        self.env, self.waiters = env, []

    def wait(self, deadline=float("inf")):
        event = _RefEvent(self.env)
        self.waiters.append((event, deadline))
        return event

    def park(self, timeout=None):
        """``any_of([wait(), timeout(d)])``, except that the wait leaves
        the signal once the deadline is due, the loser pops as nothing,
        and the wake pops as the zero-delay Timeout it is."""
        if timeout is None:
            return self.wait()
        env = self.env
        wait = self.wait(env.now + timeout)
        deadline = env.timeout(timeout)
        condition = env._condition([wait, deadline], 1, "Timeout")
        wait.callbacks.append(lambda _: setattr(deadline, "kind", None))
        return condition

    def notify_all(self):
        waiters, self.waiters = self.waiters, []
        for event, deadline in waiters:
            if deadline > self.env.now:
                event.succeed()


class _RefBucket:
    def __init__(self, env, capacity):
        self.env, self.available, self.waiting = env, capacity, deque()

    def take(self, amount):
        return False

    def get(self, amount):
        grant = _RefEvent(self.env)
        if not self.waiting and self.available >= amount:
            self.available -= amount
            grant.succeed()
        else:
            self.waiting.append((grant, amount))
        return grant

    def put(self, amount):
        self.available += amount
        while self.waiting and self.available >= self.waiting[0][1]:
            grant, need = self.waiting.popleft()
            self.available -= need
            grant.succeed()


def _run_graph(make_env, make_resource, make_bucket, make_signal, serve, graph,
               polled=False):
    """Interpret ``graph`` on one engine; returns (wakes, processed).
    ``polled`` runs each deadline park as the any_of poller it replaced."""
    capacities, shared_delays, processes = graph
    env = make_env()
    resources = [make_resource(env, capacity) for capacity in capacities]
    buckets = [make_bucket(env, 3), make_bucket(env, 1)]
    signals = [make_signal(env), make_signal(env)]
    shared = [env.timeout(delay) for delay in shared_delays]
    wakes = []

    def body(path, steps, fails=False):
        for number, (kind, which, delay) in enumerate(steps):
            if kind == "timeout":
                yield env.timeout(delay)
            elif kind == "sleep":
                yield env.sleep(delay)
            elif kind == "park":
                yield signals[which % 2].park()
            elif kind == "wait_any" or (kind == "park_by" and polled):
                yield env.any_of([signals[which % 2].wait(), env.timeout(delay)])
            elif kind == "park_by":
                yield signals[which % 2].park(timeout=delay)
            elif kind == "notify":
                signals[which % 2].notify_all()
            elif kind == "serve":
                yield from serve(resources[which % len(resources)], delay)
            elif kind == "tokens":
                bucket = buckets[which % 2]
                if not bucket.take(1):
                    yield bucket.get(1)
                wakes.append((path, number, "holding", env.now))
                yield env.timeout(delay)
                bucket.put(1)
            elif kind == "shared":
                yield shared[which % len(shared)]
            elif kind == "all_of":
                yield env.all_of([env.timeout(delay), env.timeout(which * 0.5)])
            elif kind == "any_of":
                yield env.any_of([env.timeout(delay), env.timeout(which * 0.5)])
            else:  # "call" / "call_failing": ``which`` holds the child's steps
                try:
                    value = yield from env.call(
                        body(path + (number,), which, kind == "call_failing")
                    )
                except _Boom as boom:
                    value = f"raised {boom}"
                wakes.append((path, number, "child", value, env.now))
            wakes.append((path, number, kind, env.now))
        if fails:
            raise _Boom(path)
        return len(steps)

    for pid, steps in enumerate(processes):
        env.process(body((pid,), steps))
    env.run()
    return wakes, env.processed_events


#: Zeros, ties, an int, a delay too small to move any clock but 0.0, and
#: far-horizon delays (tPROG, tBERS, a whole second) that fire long after
#: everything scheduled beside them.
_DELAYS = st.sampled_from(
    [0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 2, 1e-20, 700.0, 3000.0, 1e6]
)
_PLAIN_STEP = st.tuples(
    st.sampled_from(["timeout", "serve", "serve", "tokens", "shared",
                     "all_of", "any_of", "sleep", "park", "wait_any",
                     "park_by", "park_by", "notify", "notify"]),
    st.integers(min_value=0, max_value=3),
    _DELAYS,
)
_STEP = st.recursive(
    _PLAIN_STEP,
    lambda step: st.tuples(
        st.sampled_from(["call", "call", "call_failing"]),
        st.lists(step, max_size=3),
        st.just(0.0),
    ),
    max_leaves=6,
)
_GRAPHS = st.tuples(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.lists(_DELAYS, min_size=1, max_size=2),
    st.lists(st.lists(_STEP, min_size=1, max_size=5), min_size=1, max_size=5),
)

#: Two processes woken by the same event, each then served by a free
#: resource with nothing else queued: the first may not fire its grant in
#: place, because the second has yet to run and takes the next sequence
#: number before the first one's timeout does.
_TWO_WAITERS = (
    [1, 1],
    [1.0],
    [[("shared", 0, 0.0), ("serve", 0, 1.0)],
     [("shared", 0, 0.0), ("serve", 1, 1.0)]],
)

#: One example per condition of ``Environment.call``, at the start and at
#: the completion of the child; dropping the condition fails the example.
_SLEEP = [("timeout", 0, 0.5)]
_CALL_EXAMPLES = [
    # Start, FIFO not empty: the second process's bootstrap is queued.
    ([1], [1.0], [[("call", _SLEEP, 0.0)], [("timeout", 0, 1.0)]]),
    # Start, a timeout tied at this instant with an earlier sequence number.
    ([1], [1.0], [[("timeout", 0, 1.0), ("call", _SLEEP, 0.0)],
                  [("timeout", 0, 1.0), ("timeout", 0, 1.0)]]),
    # Start, two callers woken by one event.
    ([1], [1.0], [[("shared", 0, 0.0), ("call", _SLEEP, 0.0)],
                  [("shared", 0, 0.0), ("call", _SLEEP, 0.0)]]),
    # Completion, FIFO not empty: the other process has just finished.
    ([1], [1.0], [[("timeout", 0, 0.5), ("call", _SLEEP, 0.0), ("timeout", 0, 1.0)],
                  [("timeout", 0, 1.0)]]),
    # Completion, a later timeout tied at the child's last instant.
    ([1], [1.0], [[("timeout", 0, 0.5), ("call", _SLEEP, 0.0), ("timeout", 0, 1.0)],
                  [("timeout", 0, 0.75), ("timeout", 0, 0.25), ("timeout", 0, 1.0)]]),
    # Completion, two children (started in place) woken by one event.
    ([1], [1.0], [[("timeout", 0, 0.25), ("call", [("shared", 0, 0.0)], 0.0),
                   ("timeout", 0, 1.0)],
                  [("timeout", 0, 0.5), ("call", [("shared", 0, 0.0)], 0.0),
                   ("timeout", 0, 1.0)]]),
    # A failing child, nested, finishing in place and on a tie.
    ([2], [1.0], [[("timeout", 0, 0.5),
                   ("call", [("call_failing", [("serve", 0, 0.5)], 0.0)], 0.0)],
                  [("timeout", 0, 1.0), ("call_failing", [], 0.0)]]),
]


#: One example per parked wait; a wrong stand-in type or a sequence
#: number taken at the wrong moment fails at least one of them.
_PARKED_EXAMPLES = [
    # Sleeps: in the heap, tied with a timeout, zero and sub-resolution
    # (the FIFO), far-horizon.
    ([1], [1.0], [[("sleep", 0, 1.0), ("sleep", 0, 0.0), ("sleep", 0, 1e-20)],
                  [("timeout", 0, 1.0), ("sleep", 0, 700.0)]]),
    # Signals: a direct park and an any_of wait woken by one notify, the
    # any_of's leftover wait woken by a later one, a re-park on the other.
    ([1], [1.0], [[("park", 0, 0.0), ("sleep", 0, 0.5)],
                  [("wait_any", 0, 3000.0), ("wait_any", 1, 0.5)],
                  [("sleep", 0, 1.0), ("notify", 0, 0.0), ("park", 1, 0.0)],
                  [("sleep", 0, 2.0), ("notify", 1, 0.0), ("notify", 0, 0.0)]]),
    # Deadline parks: woken by a notify and parked again on the same
    # signal before the first deadline is due (which must not wake the
    # second), by a deadline on the instant of a notify ordered before it
    # (the deadline wins), by deadlines at zero, sub-resolution and far.
    ([1], [1.0], [[("park_by", 0, 3000.0), ("park_by", 0, 3000.0),
                   ("park_by", 1, 0.0), ("park_by", 1, 1e-20)],
                  [("sleep", 0, 1.0), ("notify", 0, 0.0), ("park_by", 0, 1e6)],
                  [("sleep", 0, 3001.0), ("notify", 0, 0.0), ("notify", 1, 0.0)]]),
    # Parked again after its deadline, a waiter wakes after those who
    # joined the signal meanwhile.
    ([1], [1.0], [[("park_by", 0, 1.0), ("park", 0, 0.0)],
                  [("sleep", 0, 0.5), ("park", 0, 0.0)],
                  [("sleep", 0, 2.0), ("notify", 0, 0.0)]]),
    # Queued grants: behind a holder, handed on at a service's end, and
    # on a free slot tied with a sleep; a sub-resolution service.
    ([1], [1.0], [[("serve", 0, 2.0), ("serve", 0, 0.0)],
                  [("serve", 0, 1.0)],
                  [("sleep", 0, 2.0), ("serve", 0, 1e-20), ("sleep", 0, 1.0)]]),
]


def _matches_reference(graph):
    pops = []
    set_pop_observer(lambda now, event: pops.append(
        (now, event._seq, type(event).__name__)
    ))
    try:
        wakes, processed = _run_graph(
            Environment, Resource, TokenBucket, Signal, _serve, graph
        )
    finally:
        set_pop_observer(None)
    reference = _RefEnv()
    ref_wakes, _ = _run_graph(
        lambda: reference, _RefResource, _RefBucket, _RefSignal,
        _RefResource.serve, graph
    )
    assert pops == [pop for pop in reference.pops if pop[2] is not None]
    assert wakes == ref_wakes
    assert processed == len(pops)
    # Each deadline park wakes where and when the any_of poller did.
    polled_wakes, _ = _run_graph(
        _RefEnv, _RefResource, _RefBucket, _RefSignal, _RefResource.serve,
        graph, polled=True,
    )
    assert wakes == polled_wakes


@given(_GRAPHS)
@example(_TWO_WAITERS)
@settings(max_examples=200, deadline=None)
def test_zero_time_path_matches_reference_engine(graph):
    """In-place grants, in-place calls and parked waits are invisible:
    same pops of the same types in the same (time, seq) order, same wake
    order, same event count as an engine that queues every grant, runs
    every child as a process and builds an event for every wait."""
    _matches_reference(graph)


@pytest.mark.parametrize("graph", _CALL_EXAMPLES)
def test_each_condition_of_call_is_needed(graph):
    _matches_reference(graph)


@pytest.mark.parametrize("graph", _PARKED_EXAMPLES)
def test_each_parked_wait_pops_as_its_event(graph):
    _matches_reference(graph)
