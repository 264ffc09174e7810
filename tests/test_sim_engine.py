"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment, Process, observe, set_pop_observer


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5.0)
        yield env.timeout(2.5)
        return env.now

    process = env.process(proc(env))
    env.run()
    assert process.value == 7.5
    assert env.now == 7.5


def test_timeout_rejects_negative_delay():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_sleep_is_a_timeout_without_the_event():
    env = Environment()

    def proc(env):
        yield env.sleep(5.0)
        yield env.sleep(0.0)
        yield env.sleep(2.5)
        return env.now

    process = env.process(proc(env))
    pops = [pop[:2] for pop in observe(env.run, record=True).records]
    assert process.value == 7.5
    # The bootstrap, three timeouts and the completion; nothing else built.
    assert pops == [(0.0, "Event"), (5.0, "Timeout"), (5.0, "Timeout"),
                    (7.5, "Timeout"), (7.5, "Process")]
    assert env.processed_events == len(pops)


def test_observe_counts_every_pop_of_every_environment_and_does_not_nest():
    envs = [Environment(), Environment()]

    def run():
        for env in envs:
            env.process(timeout for timeout in [env.timeout(1.0)])
            env.run()
        return "ran"

    observation = observe(run)
    assert (observation.value, observation.digest, observation.records) == ("ran", None, None)
    assert observation.events == sum(env.processed_events for env in envs) == 6
    with pytest.raises(SimulationError, match="already open"):
        observe(lambda: observe(run))


def test_sleep_rejects_negative_delay_and_conditions():
    env = Environment()
    with pytest.raises(SimulationError, match=">= 0"):
        env.sleep(-1.0)
    with pytest.raises(SimulationError, match="condition"):
        env.any_of([env.sleep(1.0), env.timeout(1.0)])


def test_process_return_value_delivered_to_waiter():
    env = Environment()

    def child(env):
        yield env.timeout(3.0)
        return 42

    def parent(env):
        result = yield env.process(child(env))
        return result * 2

    process = env.process(parent(env))
    env.run()
    assert process.value == 84


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_exception_propagates_into_waiting_process():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def parent(env):
        try:
            yield env.process(failing(env))
        except ValueError as exc:
            return f"caught {exc}"
        return "missed"

    process = env.process(parent(env))
    env.run()
    assert process.value == "caught boom"


def test_unhandled_process_exception_surfaces_via_run_until_complete():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("unattended")

    process = env.process(failing(env))
    with pytest.raises(RuntimeError, match="unattended"):
        env.run_until_complete(process)


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(10.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_bound_stops_before_later_events():
    env = Environment()
    fired = []

    def proc(env):
        yield env.timeout(5.0)
        fired.append("early")
        yield env.timeout(100.0)
        fired.append("late")

    env.process(proc(env))
    env.run(until=50.0)
    assert fired == ["early"]
    assert env.now == 50.0


def test_run_until_rejects_past_target():
    env = Environment()

    def proc(env):
        yield env.timeout(10.0)

    env.process(proc(env))
    env.run()
    assert env.now == 10.0
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_fail_requires_exception_instance():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")  # type: ignore[arg-type]


def test_yield_already_processed_event_resumes():
    env = Environment()
    early = env.event()
    early.succeed("old news")

    def late_joiner(env):
        yield env.timeout(10.0)
        value = yield early
        return value

    process = env.process(late_joiner(env))
    env.run()
    assert process.value == "old news"


def test_all_of_collects_every_value():
    env = Environment()

    def worker(env, delay, value):
        yield env.timeout(delay)
        return value

    def parent(env):
        children = [
            env.process(worker(env, delay, delay * 10))
            for delay in (3.0, 1.0, 2.0)
        ]
        values = yield env.all_of(children)
        return values

    process = env.process(parent(env))
    env.run()
    assert process.value == [30.0, 10.0, 20.0]
    assert env.now == 3.0


def test_any_of_fires_on_first_completion():
    env = Environment()

    def worker(env, delay):
        yield env.timeout(delay)
        return delay

    def parent(env):
        first = yield env.any_of(
            [env.process(worker(env, 5.0)), env.process(worker(env, 2.0))]
        )
        return first

    process = env.process(parent(env))
    env.run()
    assert process.value == 2.0


def test_all_of_empty_fires_immediately():
    env = Environment()

    def parent(env):
        values = yield env.all_of([])
        return values

    process = env.process(parent(env))
    env.run()
    assert process.value == []


def test_run_until_complete_detects_deadlock():
    env = Environment()

    def stuck(env):
        yield env.event()  # never triggered

    process = env.process(stuck(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run_until_complete(process)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42  # not an Event

    process = env.process(bad(env))
    with pytest.raises(SimulationError, match="yield"):
        env.run_until_complete(process)


@pytest.mark.parametrize("junk", [42, 4.2])
def test_yielding_a_number_is_still_an_error(junk):
    """A quiet serve hands its delay over inside an Event-typed token;
    a bare number never became a way to sleep."""
    env = Environment()

    def bad(env):
        yield env.timeout(1.0)
        yield junk

    process = env.process(bad(env))
    with pytest.raises(SimulationError, match="only yield Event"):
        env.run_until_complete(process)


# -- Environment.call ----------------------------------------------------------


def _named_pops(run):
    pops = []
    set_pop_observer(lambda now, event: pops.append(
        (now, event._seq, type(event).__name__, getattr(event, "name", ""))
    ))
    try:
        run()
    finally:
        set_pop_observer(None)
    return pops


def _spawn_and_wait(env, generator, name=""):
    """The idiom call() replaces."""
    return (yield env.process(generator, name))


def _call(env, generator, name=""):
    return (yield from env.call(generator, name))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("fails", [False, True])
def test_call_is_spawn_and_wait_without_the_process(workers, fails):
    """One worker: the child starts and finishes in place.  Three, tied at
    every instant: both queue.  Either way the pops are the idiom's."""

    def scenario(invoke):
        env = Environment()
        log = []

        def child(env, tag):
            yield env.timeout(2.0)
            if fails:
                raise KeyError(tag)
            return tag * 10

        def worker(env, tag):
            yield env.timeout(1.0)
            try:
                value = yield from invoke(env, child(env, tag), f"child{tag}")
            except KeyError as error:
                value = repr(error)
            log.append((tag, value, env.now))
            unnamed = yield from invoke(env, child(env, tag + 100))
            log.append((tag, unnamed, env.now))

        for tag in range(workers):
            env.process(worker(env, tag), name=f"w{tag}")
        if fails:
            with pytest.raises(KeyError):
                env.run()  # the second, uncaught one ends the worker
        else:
            env.run()
        return env, log

    results = {}
    for invoke in (_call, _spawn_and_wait):
        pops = _named_pops(lambda: results.__setitem__(invoke, scenario(invoke)))
        env, log = results[invoke]
        results[invoke] = (pops, log, env.now, env.processed_events)
    assert results[_call] == results[_spawn_and_wait]
    pops, log, _now, processed = results[_call]
    assert len(pops) == processed
    assert ("Process", "child0") in {pop[2:] for pop in pops}
    if not fails:
        assert ("Process", "child") in {pop[2:] for pop in pops}  # generator's name


def test_call_in_place_creates_no_process(monkeypatch):
    env = Environment()
    made = []
    original = Process.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        original(self, *args, **kwargs)

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env):
        yield env.timeout(1.0)
        return (yield from env.call(child(env)))

    top = env.process(parent(env))
    monkeypatch.setattr(Process, "__init__", counting)
    assert env.run_until_complete(top) == "done"
    assert made == []


def test_call_requires_a_generator():
    env = Environment()

    def parent(env):
        yield from env.call(lambda: None)

    env.process(parent(env))
    with pytest.raises(SimulationError, match="requires a generator"):
        env.run()


def test_call_lets_a_closing_generator_close():
    """GeneratorExit passes through call() (a suspended caller being
    collected), it is not turned into a failed child."""
    env = Environment()
    closed = []

    def child(env):
        try:
            yield env.event()  # never fires
        finally:
            closed.append("child")

    def parent(env):
        yield env.timeout(1.0)
        yield from env.call(child(env))

    generator = parent(env)
    env.process(generator)
    env.run()
    generator.close()
    assert closed == ["child"]


def test_close_ends_what_is_queued_pops_nothing_and_refuses_to_run():
    """Two reads an ``all_of`` waits on hold each other through the
    condition's callbacks; close() ends both parked frames (their
    ``finally`` runs), empties the queues without a pop and refuses any
    further run.  A second close does nothing."""
    env = Environment()
    ended = []

    def read(delay):
        try:
            yield env.sleep(delay)
        finally:
            ended.append(delay)

    def reader():
        yield env.all_of([env.process(read(5.0)), env.process(read(9.0))])

    env.process(reader())
    env.run(until=1.0)
    processed = env.processed_events
    env.close()
    env.close()
    assert sorted(ended) == [5.0, 9.0]
    assert (env.closed, env.queued_events, env.processed_events) == (
        True, 0, processed,
    )
    with pytest.raises(SimulationError, match="closed"):
        env.run()
    with pytest.raises(SimulationError, match="closed"):
        env.run_until_complete(env.event())


def test_processed_event_counter_increases():
    env = Environment()

    def proc(env):
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert env.processed_events >= 5


def test_determinism_two_runs_identical():
    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, tag, delay):
            for step in range(3):
                yield env.timeout(delay)
                trace.append((env.now, tag, step))

        env.process(worker(env, "x", 1.5))
        env.process(worker(env, "y", 2.0))
        env.run()
        return trace

    assert build_and_run() == build_and_run()


def test_all_of_with_already_processed_child():
    env = Environment()

    def fast(env):
        yield env.timeout(1.0)
        return "fast"

    def slow(env):
        yield env.timeout(4.0)
        return "slow"

    def parent(env):
        done = env.process(fast(env))
        pending = env.process(slow(env))
        # Let the fast child complete (and its callbacks drain) first.
        yield env.timeout(2.0)
        assert done.processed
        values = yield env.all_of([done, pending])
        return values

    process = env.process(parent(env))
    env.run()
    assert process.value == ["fast", "slow"]
    assert env.now == 4.0


def test_any_of_with_already_processed_child_fires_immediately():
    env = Environment()

    def fast(env):
        yield env.timeout(1.0)
        return "fast"

    def slow(env):
        yield env.timeout(50.0)
        return "slow"

    def parent(env):
        done = env.process(fast(env))
        env.process(slow(env))
        yield env.timeout(2.0)
        first = yield env.any_of([done, env.process(slow(env))])
        return first, env.now

    process = env.process(parent(env))
    env.run()
    # The condition resolves from the already-processed child without
    # waiting on the still-running one.
    assert process.value == ("fast", 2.0)


def test_all_of_fails_when_a_child_fails():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("child broke")

    def healthy(env):
        yield env.timeout(3.0)
        return "ok"

    def parent(env):
        try:
            yield env.all_of(
                [env.process(failing(env)), env.process(healthy(env))]
            )
        except ValueError as exc:
            return f"caught: {exc}"
        return "no error"

    process = env.process(parent(env))
    env.run()
    assert process.value == "caught: child broke"


def test_any_of_fails_when_first_child_fails():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("first to fire")

    def healthy(env):
        yield env.timeout(3.0)
        return "ok"

    def parent(env):
        try:
            yield env.any_of(
                [env.process(failing(env)), env.process(healthy(env))]
            )
        except ValueError as exc:
            return f"caught: {exc}"
        return "no error"

    process = env.process(parent(env))
    env.run()
    assert process.value == "caught: first to fire"


def test_all_of_with_already_failed_processed_child():
    env = Environment()

    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("early failure")

    def parent(env):
        # A waiter keeps the failure from surfacing as unhandled while
        # the child's callbacks drain.
        child = env.process(failing(env))
        try:
            yield child
        except ValueError:
            pass
        assert child.processed and child.failed
        try:
            yield env.all_of([child, env.timeout(5.0)])
        except ValueError as exc:
            return f"caught: {exc}"
        return "no error"

    process = env.process(parent(env))
    env.run()
    assert process.value == "caught: early failure"


def test_determinism_event_order_with_composites():
    """Two identical runs process events in the exact same order."""

    def build_and_run():
        env = Environment()
        trace = []

        def worker(env, tag, delay, steps):
            for step in range(steps):
                yield env.timeout(delay)
                trace.append((env.now, tag, step))
            return tag

        def coordinator(env):
            group_a = [
                env.process(worker(env, f"a{i}", 1.0 + i * 0.5, 3))
                for i in range(3)
            ]
            first = yield env.any_of(group_a)
            trace.append((env.now, "any", first))
            rest = yield env.all_of(group_a)
            trace.append((env.now, "all", tuple(rest)))

        env.process(coordinator(env))
        # Same-time events must also tie-break identically.
        env.process(worker(env, "b", 1.0, 4))
        env.run()
        return trace, env.processed_events

    first_trace, first_count = build_and_run()
    second_trace, second_count = build_and_run()
    assert first_trace == second_trace
    assert first_count == second_count
