"""Unit tests for Resource, TokenBucket, and Signal."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Sleep, observe, set_pop_observer
from repro.sim.resources import Request, Resource, TokenBucket
from repro.sim.signal import Signal


# -- Resource ----------------------------------------------------------------


def test_resource_serializes_at_capacity_one():
    env = Environment()
    resource = Resource(env, 1)
    finish_times = []

    def worker(env):
        yield resource.serve(10.0)
        finish_times.append(env.now)

    for _ in range(3):
        env.process(worker(env))
    env.run()
    assert finish_times == [10.0, 20.0, 30.0]


def test_resource_parallel_at_higher_capacity():
    env = Environment()
    resource = Resource(env, 3)
    finish_times = []

    def worker(env):
        yield resource.serve(10.0)
        finish_times.append(env.now)

    for _ in range(3):
        env.process(worker(env))
    env.run()
    assert finish_times == [10.0, 10.0, 10.0]


def test_resource_fifo_ordering():
    env = Environment()
    resource = Resource(env, 1)
    order = []

    def worker(env, tag):
        yield resource.serve(1.0)
        order.append(tag)

    for tag in range(5):
        env.process(worker(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_close_ends_the_processes_queued_for_a_slot():
    env = Environment()
    resource = Resource(env, capacity=1)
    ended = []

    def user(name):
        try:
            yield resource.serve(10.0)
        finally:
            ended.append(name)

    for name in ("holder", "first", "second"):
        env.process(user(name))
    env.run(until=1.0)
    assert resource.queue_length == 2
    resource.close()
    assert (resource.queue_length, ended) == (0, ["first", "second"])


def test_resource_rejects_zero_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, 0)


def test_release_of_ungranted_request_rejected():
    env = Environment()
    resource = Resource(env, 1)
    first = resource.request()
    second = resource.request()  # queued, not granted
    assert first.triggered
    assert not second.triggered
    with pytest.raises(SimulationError):
        resource.release(second)


def test_busy_fraction_tracks_utilization():
    env = Environment()
    resource = Resource(env, 1)

    def worker(env):
        yield resource.serve(50.0)
        yield env.timeout(50.0)

    env.process(worker(env))
    env.run()
    assert resource.busy_fraction() == pytest.approx(0.5)


def test_queue_length_visible_while_waiting():
    env = Environment()
    resource = Resource(env, 1)

    def holder(env):
        yield resource.serve(100.0)

    def observer(env):
        yield env.timeout(1.0)
        return resource.queue_length

    env.process(holder(env))
    env.process(holder(env))
    env.process(holder(env))
    probe = env.process(observer(env))
    env.run()
    assert probe.value == 2


# -- TokenBucket ---------------------------------------------------------------


def test_token_bucket_grants_when_available():
    env = Environment()
    bucket = TokenBucket(env, 10)
    grant = bucket.get(4)
    assert grant.triggered
    assert bucket.available == 6


def test_token_bucket_blocks_until_put():
    env = Environment()
    bucket = TokenBucket(env, 4, initial=0)
    progress = []

    def taker(env):
        yield bucket.get(3)
        progress.append(env.now)

    def giver(env):
        yield env.timeout(25.0)
        bucket.put(3)

    env.process(taker(env))
    env.process(giver(env))
    env.run()
    assert progress == [25.0]


def test_token_bucket_fifo_head_blocks_smaller_requests():
    env = Environment()
    bucket = TokenBucket(env, 10, initial=0)
    order = []

    def taker(env, amount, tag):
        yield bucket.get(amount)
        order.append(tag)

    env.process(taker(env, 8, "big"))
    env.process(taker(env, 1, "small"))

    def feed(env):
        yield env.timeout(1.0)
        bucket.put(1)  # not enough for the head request
        yield env.timeout(1.0)
        bucket.put(8)  # head takes 8, leaving 1 for the small request

    env.process(feed(env))
    env.run()
    assert order == ["big", "small"]


def test_token_bucket_overflow_rejected():
    env = Environment()
    bucket = TokenBucket(env, 4)
    with pytest.raises(SimulationError):
        bucket.put(1)


def test_token_bucket_rejects_oversized_request():
    env = Environment()
    bucket = TokenBucket(env, 4)
    with pytest.raises(SimulationError):
        bucket.get(5)


def test_token_bucket_initial_bounds_checked():
    env = Environment()
    with pytest.raises(SimulationError):
        TokenBucket(env, 4, initial=9)


def test_release_hands_slot_to_earliest_waiter():
    """A released slot passes directly to the head of the wait queue.

    ``in_service`` must not dip during the handoff: the slot never
    returns to the free pool when a waiter is parked, so the busy-time
    integral charges the handoff interval to the successor.
    """
    env = Environment()
    resource = Resource(env, 1)
    holder = resource.request()
    assert holder.triggered
    waiters = [resource.request() for _ in range(3)]
    assert resource.in_service == 1
    assert resource.queue_length == 3

    resource.release(holder)
    assert waiters[0].triggered
    assert not waiters[1].triggered
    assert resource.in_service == 1  # slot moved, never freed
    assert resource.queue_length == 2

    resource.release(waiters[0])
    resource.release(waiters[1])
    resource.release(waiters[2])
    assert resource.in_service == 0
    assert resource.queue_length == 0


def test_busy_accounting_exact_across_handoffs():
    """Back-to-back serves through a handoff integrate to the exact total."""
    env = Environment()
    resource = Resource(env, 1)

    def worker(env):
        yield resource.serve(10.0)

    for _ in range(4):
        env.process(worker(env))
    env.process(worker(env))

    def idle_tail(env):
        yield env.timeout(100.0)

    env.process(idle_tail(env))
    env.run()
    # 5 serves x 10us busy over a 100us window, no double counting at
    # the grant handoff instants.
    assert resource.busy_slot_us() == pytest.approx(50.0)
    assert resource.busy_fraction() == pytest.approx(0.5)


# -- serve(): in-place grants and the one-resume queued path -----------------


def _one_yield_serve(env, resource, duration):
    yield resource.serve(duration)


def _two_yield_serve(env, resource, duration):
    """What serve() was before grants could fire in place: one event for
    the grant, one for the service, the process resumed by each."""
    request = resource.request()
    yield request
    try:
        yield env.timeout(duration)
    finally:
        resource.release(request)


def _mixed_schedule(serve):
    """Seven workers over a capacity-2 and a capacity-1 resource.

    The staggered starts make some grants the only thing due at their
    instant (fired in place), some tied with other events (queued while
    the slot is free) and some contended (queued behind a holder).
    """
    env = Environment()
    wide, narrow = Resource(env, 2), Resource(env, 1)
    finished = []

    def worker(tag, start, duration):
        yield env.timeout(start)
        yield from serve(env, wide, duration)
        yield from serve(env, narrow, duration / 2)
        finished.append((tag, env.now))

    for tag, (start, duration) in enumerate(
        [(0.0, 4.0), (0.0, 4.0), (0.0, 6.0), (1.0, 2.0), (20.5, 3.0),
         (30.0, 2.0), (30.0, 2.0)]
    ):
        env.process(worker(tag, start, duration))
    pops = []
    set_pop_observer(lambda now, event: pops.append(
        (now, event._seq, type(event).__name__, event is wide._in_place
         or event is narrow._in_place)
    ))
    try:
        env.run()
    finally:
        set_pop_observer(None)
    return env, wide, narrow, finished, pops


def test_serve_equals_two_yield_pattern_on_mixed_schedule():
    env, wide, narrow, finished, pops = _mixed_schedule(_one_yield_serve)
    ref_env, ref_wide, ref_narrow, ref_finished, ref_pops = _mixed_schedule(
        _two_yield_serve
    )
    # The schedule exercises both paths.
    in_place = [pop for pop in pops if pop[3]]
    queued = [pop for pop in pops if pop[2] == "Request" and not pop[3]]
    assert in_place and queued
    assert not any(pop[3] for pop in ref_pops)
    # Same events, same order, same names; only where they fired differs.
    assert [pop[:3] for pop in pops] == [pop[:3] for pop in ref_pops]
    assert env.processed_events == ref_env.processed_events == len(pops)
    assert finished == ref_finished
    # Busy accounting is exact, not approximately equal.
    assert wide.busy_slot_us() == ref_wide.busy_slot_us()
    assert narrow.busy_slot_us() == ref_narrow.busy_slot_us()
    assert wide.busy_fraction() == ref_wide.busy_fraction()
    assert narrow.busy_fraction() == ref_narrow.busy_fraction()
    assert wide.in_service == narrow.in_service == 0


def test_serve_capacity_two_queues_the_third():
    env = Environment()
    resource = Resource(env, 2)
    peak = []
    finish_times = []

    def worker(env):
        yield resource.serve(10.0)
        finish_times.append(env.now)

    def probe(env):
        yield env.timeout(5.0)
        peak.append((resource.in_service, resource.queue_length))

    for _ in range(3):
        env.process(worker(env))
    env.process(probe(env))
    env.run()
    assert finish_times == [10.0, 10.0, 20.0]
    assert peak == [(2, 1)]
    assert resource.busy_slot_us() == 30.0


def test_successor_grant_sequenced_before_releaser_continues():
    """When a service ends with a waiter parked, the waiter's grant gets
    its sequence number before anything the releasing process does next."""
    env = Environment()
    resource = Resource(env, 1)
    after_release = env.event()

    def first(env):
        yield resource.serve(5.0)
        after_release.succeed("first continues")

    def second(env):
        yield resource.serve(5.0)

    env.process(first(env))
    env.process(second(env))
    pops = []
    set_pop_observer(lambda now, event: pops.append((now, event)))
    try:
        env.run()
    finally:
        set_pop_observer(None)
    at_handoff = [event for now, event in pops if now == 5.0]
    grant = next(event for event in at_handoff if isinstance(event, Request))
    # A slot handed on while its releaser runs is a queued grant, never
    # one fired in place.
    assert grant is not resource._in_place
    assert at_handoff.index(grant) < at_handoff.index(after_release)
    assert grant._seq < after_release._seq
    assert env.now == 10.0


def test_quiet_grant_fires_in_place_and_is_counted():
    env = Environment()
    resource = Resource(env, 1)
    queued = []

    def worker(env):
        yield env.timeout(1.0)
        before = env.processed_events
        sleep = resource.serve(2.0)
        # The grant is accounted for, the slot taken, and nothing queued:
        # no grant event, and no timeout object either.
        assert env.processed_events == before + 1
        assert resource.in_service == 1
        assert env.queued_events == 1  # the probe's timeout only
        assert isinstance(sleep, Sleep) and sleep.delay == 2.0
        yield sleep
        assert env.now == 3.0
        assert resource.in_service == 0

    def probe(env):
        yield env.timeout(2.0)
        queued.append(env.queued_events)  # the worker itself, asleep

    process = env.process(worker(env))
    env.process(probe(env))
    run = observe(lambda: env.run_until_complete(process), record=True)
    pops = [pop[:2] for pop in run.records]
    assert env.now == 3.0
    assert queued == [1]
    # The observer is shown the grant and the timeout all the same.
    assert [pop for pop in pops if pop[1] in ("Request", "Timeout")] == [
        (1.0, "Timeout"), (1.0, "Request"), (2.0, "Timeout"), (3.0, "Timeout"),
    ]
    assert len(pops) == env.processed_events


def test_serve_needs_a_running_process_with_no_serve_pending():
    env = Environment()
    resource = Resource(env, 2)
    with pytest.raises(SimulationError, match="no process running"):
        resource.serve(1.0)
    assert resource.in_service == 0

    def twice(env):
        resource.serve(1.0)  # result dropped: the release is still armed
        yield resource.serve(1.0)

    env.process(twice(env))
    with pytest.raises(SimulationError, match="previous serve"):
        env.run()
    assert resource.in_service == 1  # the leak the linter flags (SIM003)
    # Between resumes no process is running again.
    with pytest.raises(SimulationError, match="no process running"):
        resource.serve(1.0)


def test_serve_result_is_yielded_not_iterated():
    env = Environment()
    resource = Resource(env, 1)

    def old_form(env):
        yield from resource.serve(1.0)

    env.process(old_form(env))
    with pytest.raises(TypeError, match="not iterable"):
        env.run()


def test_sub_resolution_service_is_a_real_timeout_in_the_fifo():
    """A delay too small to move the clock cannot be parked in the
    future-event heap (nothing there is ever due at the instant it was
    put in)."""
    env = Environment()
    resource = Resource(env, 1)
    finished = []

    def worker(env, duration):
        yield env.timeout(1e6)
        yield resource.serve(duration)
        finished.append(env.now)

    env.process(worker(env, 0))
    env.process(worker(env, 1e-12))  # 1e6 + 1e-12 == 1e6 in floats
    env.process(worker(env, 3))  # an int duration
    env.run()
    assert finished == [1e6, 1e6, 1e6 + 3]
    assert resource.in_service == 0 and env.queued_events == 0


def test_serve_rejects_negative_duration_without_taking_a_slot():
    env = Environment()
    resource = Resource(env, 1)

    def worker(env):
        yield resource.serve(-1.0)

    env.process(worker(env))
    with pytest.raises(SimulationError):
        env.run()
    assert resource.in_service == 0


def test_direct_request_and_serve_share_one_queue():
    """request()/release() callers and serve() callers interleave FIFO."""
    env = Environment()
    resource = Resource(env, 1)
    log = []

    def direct(env, tag, hold):
        request = resource.request()
        yield request
        assert request.value is resource
        log.append((tag, "granted", env.now))
        yield env.timeout(hold)
        resource.release(request)

    def served(env, tag, duration):
        yield resource.serve(duration)
        log.append((tag, "served", env.now))

    env.process(direct(env, "a", 3.0))
    env.process(served(env, "b", 2.0))
    env.process(direct(env, "c", 1.0))
    env.process(served(env, "d", 4.0))
    env.run()
    assert log == [
        ("a", "granted", 0.0),
        ("b", "served", 5.0),
        ("c", "granted", 5.0),
        ("d", "served", 10.0),
    ]
    assert resource.in_service == 0
    assert resource.busy_slot_us() == 10.0


# -- TokenBucket.take() --------------------------------------------------------


def test_take_fires_in_place_only_when_nothing_else_is_due():
    env = Environment()
    bucket = TokenBucket(env, 4)
    before = env.processed_events
    assert bucket.take(3) is True
    assert bucket.available == 1
    assert env.processed_events == before + 1
    # Not enough tokens: nothing taken, the caller must wait on get().
    assert bucket.take(2) is False
    assert bucket.available == 1
    # An event is due at this instant: the grant has to queue behind it.
    env.event().succeed()
    assert bucket.take(1) is False
    assert bucket.available == 1
    with pytest.raises(SimulationError):
        bucket.take(0)
    with pytest.raises(SimulationError):
        bucket.take(5)


def test_take_does_not_overtake_waiters():
    env = Environment()
    bucket = TokenBucket(env, 4, initial=1)
    blocked = bucket.get(3)
    assert not blocked.triggered
    assert bucket.take(1) is False  # FIFO: the parked get() goes first
    assert bucket.available == 1


# -- Signal ----------------------------------------------------------------------


def test_signal_wakes_all_waiters():
    env = Environment()
    signal = Signal(env)
    woken = []

    def waiter(env, tag):
        yield signal.wait()
        woken.append((tag, env.now))

    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))

    def notifier(env):
        yield env.timeout(10.0)
        signal.notify_all()

    env.process(notifier(env))
    env.run()
    assert woken == [("a", 10.0), ("b", 10.0)]


def test_signal_is_rearmable():
    env = Environment()
    signal = Signal(env)
    wake_times = []

    def waiter(env):
        for _ in range(2):
            yield signal.wait()
            wake_times.append(env.now)

    def notifier(env):
        yield env.timeout(5.0)
        signal.notify_all()
        yield env.timeout(5.0)
        signal.notify_all()

    env.process(waiter(env))
    env.process(notifier(env))
    env.run()
    assert wake_times == [5.0, 10.0]
    assert signal.notify_count == 2


def test_signal_park_and_wait_share_one_wake_order():
    """Parked processes and wait() events wake in the order they joined,
    each popped as an Event, and a park needs a running process."""
    env = Environment()
    signal = Signal(env)
    woken = []

    def parker(env, tag, delay):
        yield env.timeout(delay)
        yield signal.park()
        woken.append((tag, env.now))

    def waiter(env, tag, delay):
        yield env.timeout(delay)
        yield env.any_of([signal.wait(), env.timeout(100.0)])
        woken.append((tag, env.now))

    env.process(parker(env, "p1", 1.0))
    env.process(waiter(env, "w", 2.0))
    env.process(parker(env, "p2", 3.0))

    def notifier(env):
        yield env.timeout(10.0)
        assert signal.waiting == 3
        signal.notify_all()

    env.process(notifier(env))
    pops = observe(env.run, record=True).records
    # The three wakes pop right after the notifier's timeout, in joining
    # order; the any_of waiter resumes later, when its condition fires.
    assert [pop[1] for pop in pops if pop[0] == 10.0][:4] == [
        "Timeout", "Event", "Event", "Event"
    ]
    assert woken == [("p1", 10.0), ("p2", 10.0), ("w", 10.0)]
    with pytest.raises(SimulationError, match="no process running"):
        signal.park()


def test_signal_notify_without_waiters_is_safe():
    env = Environment()
    signal = Signal(env)
    signal.notify_all()
    assert signal.waiting == 0


def test_signal_wake_order_matches_wait_order():
    """Waiters wake in the order they parked, every run, regardless of
    the delays that got them there — the determinism the flush/GC
    workers rely on when several wake to contend for the same blocks."""
    env = Environment()
    signal = Signal(env)
    woken = []

    def waiter(env, tag, delay):
        yield env.timeout(delay)
        yield signal.wait()
        woken.append(tag)

    # Parking order (by delay) deliberately differs from creation order.
    env.process(waiter(env, "late", 3.0))
    env.process(waiter(env, "early", 1.0))
    env.process(waiter(env, "middle", 2.0))

    def notifier(env):
        yield env.timeout(10.0)
        signal.notify_all()

    env.process(notifier(env))
    env.run()
    assert woken == ["early", "middle", "late"]


def test_signal_waiter_parked_during_notify_waits_for_next_round():
    """A wait() issued while a notification is being delivered arms for
    the *next* notify_all — notifications are edges, not levels."""
    env = Environment()
    signal = Signal(env)
    wake_times = []

    def chained(env):
        yield signal.wait()
        # Re-arm immediately upon waking, same timestamp as the notify.
        yield signal.wait()
        wake_times.append(env.now)

    def notifier(env):
        yield env.timeout(5.0)
        signal.notify_all()
        yield env.timeout(5.0)
        signal.notify_all()

    env.process(chained(env))
    env.process(notifier(env))
    env.run()
    assert wake_times == [10.0]
    assert signal.waiting == 0
