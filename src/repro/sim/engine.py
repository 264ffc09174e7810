"""A small deterministic discrete-event simulation engine.

The engine follows the familiar generator-coroutine style of SimPy: model
code is written as generator functions that ``yield`` events (timeouts,
resource requests, other processes), and the :class:`Environment` advances a
virtual clock from event to event.

Only the features the SSD models need are implemented, which keeps the
engine small enough to reason about and test exhaustively:

* :class:`Event` — one-shot triggerable with callbacks and a value.
* :class:`Timeout` — an event scheduled a fixed delay in the future.
* :class:`Process` — drives a generator; is itself an event that triggers
  when the generator returns, carrying the generator's return value.
* :class:`AnyOf` / :class:`AllOf` — composite events.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so repeated
runs of the same model produce identical traces.

Event queue
-----------
The queue is a FIFO plus one heap, one for each population of events an
SSD model produces:

* **Immediate events** — an event triggered via :meth:`Event.succeed` (a
  process completion, a bare grant, a condition) and a parked process
  woken now (a start, a queued grant, a signal wakeup) always fire at the
  *current* time.  Because the clock never advances while an unfired
  immediate entry exists, these are already in fire order (their sequence
  numbers increase monotonically) and live in a plain FIFO deque — no
  heap operations, no tuple packing.  The majority of all events take
  this path.
* **Future events** — timeouts and sleeping processes with a strictly
  positive delay go into one heap of ``(fire_time, sequence, entry)``
  entries.

The loop merges the two heads by ``(fire_time, sequence)``, which is the
total order of a single heap holding every event.

A resource or token grant that would be the very next event popped does
not enter the queue at all: :meth:`Environment._fire_in_place` accounts
for its pop on the spot (sequence number, event count, observer) and the
caller carries on, which leaves the order and the count as they were.
The same accounting starts and finishes a child generator run through
:meth:`Environment.call`.

A wait that exactly one process will ever observe builds no event either:
the process is *parked* — it sits in the FIFO or the heap itself, under
the ``(fire_time, sequence)`` the event would have had, and the pop
observer is shown a stand-in of that event's type.  Four waits park: a
process's start, :meth:`Environment.sleep`, a
:meth:`~repro.sim.resources.Resource.serve` (its queued grant and its
service) and :meth:`~repro.sim.signal.Signal.park`.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return "done at %.0f" % env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
'done at 5'
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from types import TracebackType
from typing import (
    Any,
    Callable,
    Deque,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
)

from repro.errors import SimulationError

#: Type alias for model coroutines driven by :class:`Process`.
ProcessGenerator = Generator["Event", Any, Any]

#: What an event calls when it fires.
Callback = Callable[["Event"], None]

#: Entry in the future-event heap: a timeout or a parked process.
_QueueEntry = Tuple[float, int, "Event"]

#: Event-pop observer installed by the nondeterminism sanitizer
#: (:mod:`repro.lint.sanitizer`): called as ``observer(now, event)`` for
#: every event the environment dequeues, in fire order.  None
#: in normal runs — the per-event cost is one global load and a None
#: check, which keeps the hot path allocation-free.
_pop_observer: Optional[Callable[[float, "Event"], None]] = None


def set_pop_observer(
    observer: Optional[Callable[[float, "Event"], None]],
) -> None:
    """Install (or clear, with ``None``) the event-pop observer.

    Observers see every pop across *all* environments in the process;
    the sanitizer relies on that to fingerprint a whole figure run
    without threading a handle through model code.
    """
    global _pop_observer
    _pop_observer = observer


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*.  Calling :meth:`succeed` (or
    :meth:`fail`) triggers it, records its value, and schedules its
    callbacks to run at the current simulation time.  Waiting processes are
    resumed through those callbacks.
    """

    __slots__ = (
        "env", "callbacks", "_triggered", "_value", "_failed",
        "_fire_at", "_seq",
    )

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Callables invoked with this event when it fires.  The
        #: environment drops the list (``None``) once it has run them; a
        #: process yielding an already-processed event must resume via a
        #: relay event rather than by appending a callback nobody will run.
        self.callbacks: Optional[List[Callback]] = []
        self._triggered = False
        self._value: Any = None
        self._failed = False
        #: Queue bookkeeping, written by the environment at schedule time.
        self._fire_at = 0.0
        self._seq = 0

    @property
    def triggered(self) -> bool:
        """Whether the event has fired (successfully or not)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the environment has already run this event's callbacks."""
        return self.callbacks is None

    @property
    def failed(self) -> bool:
        """Whether the event fired through :meth:`fail`."""
        return self._failed

    @property
    def value(self) -> Any:
        """The value the event fired with (or the exception, if failed)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        env = self.env
        self._fire_at = env._now
        self._seq = env._sequence
        env._sequence += 1
        env._immediate.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, re-raised in waiters."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._failed = True
        self._value = exception
        env = self.env
        self._fire_at = env._now
        self._seq = env._sequence
        env._sequence += 1
        env._immediate.append(self)
        return self


class Timeout(Event):
    """An event that fires automatically ``delay`` time units from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        # Flattened Event.__init__ and queue insertion: a timeout is born
        # triggered and goes straight into the queue, so the generic
        # succeed() path (and its already-triggered check) never applies,
        # and every timed step of every model op pays for one call here.
        self.env = env
        self.callbacks = []
        self._triggered = True
        self._value = value
        self._failed = False
        self.delay = delay
        seq = env._sequence
        env._sequence = seq + 1
        self._seq = seq
        now = env._now
        fire_at = now + delay
        self._fire_at = fire_at
        if fire_at == now:
            # Zero-delay timeouts (and delays too small to move the
            # clock) join the immediate FIFO: same (time, seq) order, no
            # heap traffic, and nothing in the heap is ever due at an
            # instant earlier than it was scheduled.
            env._immediate.append(self)
            return
        # The packed tuple is deliberate: it is the heap's C-speed
        # comparison key, beating Event.__lt__ dispatch.
        heappush(env._future, (fire_at, seq, self))  # simlint: disable=SIM007


class Sleep(Event):
    """What the parking waits hand back for their process to yield.

    One per environment, never triggered and never queued: it only carries
    ``delay`` from :meth:`Environment.sleep` or a quiet
    :meth:`~repro.sim.resources.Resource.serve` to the
    :meth:`Process._resume` that receives it, which parks the process
    itself for that long.  ``delay`` is None when the process is parked
    already — in a resource's queue, a signal's waiters or the FIFO — and
    yielding only ends its turn.  It is an :class:`Event` so that model
    generators stay ``Generator[Event, ...]``; waiting on it any other way
    (a condition, a second process) is refused or unsupported.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self.delay: Optional[float] = None


class Process(Event):
    """Runs a generator coroutine; triggers when the generator returns.

    The process resumes its generator every time the event the generator
    yielded fires.  Successful events send their value into the generator;
    failed events throw their exception into it, so model code can use
    ordinary ``try/except`` around ``yield``.

    A process with one thing to wait for is *parked*: it goes into the
    FIFO or the heap as itself, and an untriggered process popped from
    the queue is a wait that is over, not an event that fired.  ``_shown``
    is the stand-in the pop observer sees for it.  A new process parks in
    the FIFO to start; a generator that yields the environment's
    :class:`Sleep` token is parked for its ``delay``; a queued
    ``Resource.serve`` parks it in the resource's queue with the service
    time in ``_hold``, and its grant's pop parks it again for that long
    (a deadline park holds 0.0: its wake hops once more).  ``_on_wake``,
    armed by ``serve`` on the process whose generator is running, is a
    one-shot step run at the next resume before the generator continues:
    the slot's release, so a parked successor's grant is sequenced before
    anything the releaser does next.
    """

    __slots__ = ("_generator", "name", "_on_wake", "_shown", "_hold")

    def __init__(
        self, env: "Environment", generator: ProcessGenerator, name: str = ""
    ) -> None:
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise SimulationError(
                "process() requires a generator; did you forget to call "
                "the generator function?"
            )
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._on_wake: Optional[Callable[[], None]] = None
        self._hold: Optional[float] = None
        # Start at the current time, popped as the bootstrap event would be.
        self._park_now(env._fired)

    def end(self) -> None:
        """Close the generator of a process that will not run again.

        For a process left when its simulation ends (a long-lived worker,
        work still queued): the frame lets go of everything it holds now,
        rather than whenever a full collection finds the cycle through
        it.  Nothing is popped; a wake still queued for the process would
        find the generator finished.
        """
        self._generator.close()

    def _park_now(self, shown: Event) -> None:
        """Park in the immediate FIFO, to be popped as ``shown``'s type
        under the sequence number an event succeeded here would take."""
        env = self.env
        seq = env._sequence
        env._sequence = seq + 1
        self._seq = seq
        self._shown = shown
        env._immediate.append(self)

    def _park_for(self, delay: float) -> None:
        """Park for ``delay``, popped as the :class:`Timeout` it replaces."""
        env = self.env
        now = env._now
        fire_at = now + delay
        seq = env._sequence
        env._sequence = seq + 1
        self._seq = seq
        self._shown = env._woken
        if fire_at == now:
            # Too short to move the clock: the FIFO, as Timeout does.
            env._immediate.append(self)
        else:
            heappush(env._future, (fire_at, seq, self))  # simlint: disable=SIM007

    def _resume(self, event: Event) -> None:
        """Advance the generator with the fired event's outcome."""
        step = self._on_wake
        if step is not None:
            self._on_wake = None
            step()
        env = self.env
        env._active = self
        # The ``id`` of the traceback a thrown-in failure carried (0:
        # none), not the traceback: a finished generator's frame keeps
        # this one as its ``f_back`` (3.12), a failure's traceback may
        # keep that frame, so these locals must not lead to a failure.
        thrown = 0
        try:
            if event._failed:
                thrown = env._thrown = id(event._value.__traceback__)
                try:
                    target = self._generator.throw(event._value)
                finally:
                    env._thrown = 0
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            del event
            self.succeed(stop.value)
            return
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # model raised: propagate to waiters
            if not self.callbacks:
                # Nobody is waiting (e.g. a background worker): surface the
                # failure loudly instead of swallowing it.
                raise
            # Kept as the failure's value, the traceback holds neither
            # this frame nor the locals of the finished frames: each
            # would make the process, and the model its frames reached,
            # a cycle only a full collection frees.
            self.fail(exc.with_traceback(_clear_finished(exc, thrown)))
            del self, event  # (a parked process resumes with itself)
            return
        finally:
            env._active = None
        if target is env._sleep:
            delay = target.delay
            if delay is None:
                return  # parked already, by a queued serve or a signal
            # _park_for, inlined: every timed wait comes through here.
            now = env._now
            fire_at = now + delay
            seq = env._sequence
            env._sequence = seq + 1
            self._seq = seq
            self._shown = env._woken
            if fire_at == now:
                env._immediate.append(self)
            else:
                heappush(env._future, (fire_at, seq, self))  # simlint: disable=SIM007
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
        if target.env is not env:
            raise SimulationError("cannot wait on an event from another Environment")
        waiters = target.callbacks
        if waiters is None:
            # The event fired in the past and its callbacks already ran;
            # resume through a fresh relay event so we still wake up.
            relay = Event(env)
            relay.callbacks = [self._resume]
            if target._failed:
                relay.fail(target._value)
            else:
                relay.succeed(target._value)
        else:
            waiters.append(self._resume)


class Condition(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events: Tuple[Event, ...] = tuple(events)
        for child in self.events:
            if child.env is not env:
                raise SimulationError(
                    "condition mixes events from different environments"
                )
            if child is env._sleep:
                raise SimulationError(
                    "a parked wait (sleep, serve, park) cannot be part of a "
                    "condition; use env.timeout() or signal.wait()"
                )
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for child in self.events:
            waiters = child.callbacks
            if waiters is None:
                # Callbacks already drained: deliver the outcome directly.
                self._child_fired(child)
            else:
                waiters.append(self._child_fired)

    def _child_fired(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self.events])


class AnyOf(Condition):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ()

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._failed:
            self.fail(event._value)
            return
        self.succeed(event._value)


_E = TypeVar("_E", bound=Event)


def _clear_finished(exc: BaseException, stop: int) -> Optional[TracebackType]:
    """Clear the locals of the frames ``exc`` propagated out of — its
    traceback past the first entry (the frame that caught it, running),
    up to the traceback of ``id`` ``stop`` — and return that part.  Those
    frames are finished, and their locals would keep whatever they
    reached alive as long as the exception."""
    caught = exc.__traceback__
    passed = tb = None if caught is None else caught.tb_next
    while tb is not None and id(tb) != stop:
        tb.tb_frame.clear()
        tb = tb.tb_next
    return passed


def _bare(kind: Type[_E], env: "Environment") -> _E:
    """A ``kind`` event built by ``Event.__init__`` alone: untriggered, not
    scheduled, and (a :class:`Process`) with no generator behind it."""
    event = kind.__new__(kind)
    Event.__init__(event, env)
    return event


def _stand_in(kind: Type[_E], env: "Environment") -> _E:
    """What the pop observer is shown for a pop that has no event of its
    own: a ``kind`` already triggered and processed, of which only the
    type, ``name``, ``_fire_at`` and ``_seq`` mean anything."""
    event = _bare(kind, env)
    event._triggered = True
    event.callbacks = None
    return event


class Environment:
    """Holds the event queue and the simulation clock.

    The clock starts at 0.0 microseconds and only moves when :meth:`run`
    processes events.  All model components sharing an environment observe
    the same clock.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._processed_events = 0
        #: Events triggered at the current time, already in fire order.
        self._immediate: Deque[Event] = deque()
        #: Events due later than they were scheduled, as a heap.
        self._future: List[_QueueEntry] = []
        #: True while callbacks of the popped event other than its last
        #: are running (see :meth:`_fire_in_place`).
        self._more_callbacks = False
        #: The process whose generator is running; None between resumes.
        self._active: Optional[Process] = None
        #: What the parking waits return for their process to yield.
        self._sleep = Sleep(self)
        #: What the pop observer is shown in place of an event that never
        #: existed: a bootstrap (of a process, or of a child that
        #: :meth:`call` ran in place) or a signal's wake; the completion
        #: of a child run in place; the timeout of a parked process.
        self._fired = _stand_in(Event, self)
        self._returned = _stand_in(Process, self)
        self._woken = _stand_in(Timeout, self)
        self._closed = False
        #: While a failed event's exception is thrown into a process, the
        #: ``id`` of the traceback it had (frames past it finished
        #: earlier); 0 otherwise.
        self._thrown = 0

    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events processed so far (diagnostic)."""
        return self._processed_events

    @property
    def queued_events(self) -> int:
        """Events currently awaiting processing (diagnostic)."""
        return len(self._immediate) + len(self._future)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has ended this simulation."""
        return self._closed

    def close(self) -> None:
        """End the simulation: empty the queues and refuse to run again.

        What is still queued — the timeouts of idle pollers, parked
        processes — holds the model through its callbacks and frames, so
        a finished environment would keep its whole model alive until a
        full collection.  A parked process is ended as well: a condition
        waiting on it (an ``all_of`` over parallel reads) and the process
        hold each other, and only closing its frame lets go of the model.
        Nothing is popped or counted here.
        """
        self._closed = True
        queued = [*self._immediate, *(entry[2] for entry in self._future)]
        for event in queued:
            if isinstance(event, Process) and not event._triggered:
                event.end()
        # (After the ends: a frame's ``finally`` may have queued a wake.)
        self._immediate.clear()
        self._future.clear()

    # -- event construction helpers ------------------------------------

    def event(self) -> Event:
        """Create an untriggered event bound to this environment."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay: float) -> Sleep:
        """Wait ``delay`` microseconds: ``yield env.sleep(delay)``.

        The pop is that of ``yield env.timeout(delay)`` — a
        :class:`Timeout` of the same time and sequence number — but no
        event is built: the process parks in the queue itself.  Yield the
        result at once; inside ``any_of``/``all_of`` use :meth:`timeout`
        (simlint SIM003 flags both misuses).
        """
        if delay < 0:
            raise SimulationError(f"sleep delay must be >= 0, got {delay}")
        sleep = self._sleep
        sleep.delay = delay
        return sleep

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process driving ``generator``; returns its event."""
        return Process(self, generator, name)

    def call(
        self, generator: ProcessGenerator, name: str = ""
    ) -> Generator[Event, Any, Any]:
        """Run ``generator`` as a child and wait for it, in the caller's frame.

        ``value = yield from env.call(gen)`` is ``value = yield
        env.process(gen)`` — the same two events (a bootstrap, then the
        child's completion as a :class:`Process` named like the child)
        with the same sequence numbers at the same places in the pop
        order, and a child's exception raised at the call site as a failed
        process's would be — minus the child process.  Each of the two
        events that would provably be the next one popped is accounted for
        on the spot (:meth:`_fire_in_place`) and ``generator`` runs inside
        the caller's own process.  A start that has to queue is literally
        ``yield Process(...)``; a completion that has to queue is a
        generator-less :class:`Process` event succeeded (or failed) here
        and waited on.  Use :meth:`process` to spawn without waiting.
        """
        if not hasattr(generator, "send"):
            raise SimulationError(
                "call() requires a generator; did you forget to call "
                "the generator function?"
            )
        # (A non-empty FIFO is the usual reason to queue; it is looked at
        # here, both times, before paying for the call that looks again.)
        if self._immediate or not self._fire_in_place(self._fired):
            return (yield Process(self, generator, name))
        value = None
        error: Optional[BaseException] = None
        try:
            value = yield from generator
        except (KeyboardInterrupt, SystemExit, GeneratorExit):
            raise
        except BaseException as exc:  # reaches the caller like a failed process
            # The child's frames are finished: drop their locals, which a
            # waiter's (a list of failed reads, say) would otherwise tie
            # into a cycle with the exception.
            _clear_finished(exc, self._thrown)
            error = exc
        label = name or getattr(generator, "__name__", "process")
        self._returned.name = label
        if self._immediate or not self._fire_in_place(self._returned):
            # Something else is due first: complete through the queue.
            done = _bare(Process, self)
            done.name = label
            if error is None:
                done.succeed(value)
            else:
                done.fail(error)
                error = None
            # Neither local may outlive the wait: the failure's traceback
            # holds this frame.
            try:
                return (yield done)
            finally:
                del done
        if error is not None:
            try:
                raise error
            finally:
                error = None
        return value

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires once all ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling internals -------------------------------------------

    def _fire_in_place(self, grant: Event) -> bool:
        """Fire the zero-time ``grant`` here, if it would be popped next.

        A grant succeeded now would be the very next event the loop pops
        exactly when nothing else is due at this instant (the immediate
        FIFO is empty and the heap's earliest entry is later than now)
        and the callback running is the popped event's last one, so no
        other process wakes before the loop pops again.  Then the pop is
        accounted for on the spot — one sequence number, one processed
        event, the observer shown ``grant`` — and the caller carries on as
        the grant's only waiter would have.  Returns False, having done
        nothing, when the grant has to queue.
        """
        if self._immediate or self._more_callbacks:
            return False
        future = self._future
        if future and future[0][0] <= self._now:
            return False
        seq = self._sequence
        self._sequence = seq + 1
        self._processed_events += 1
        if _pop_observer is not None:
            grant._fire_at = self._now
            grant._seq = seq
            _pop_observer(self._now, grant)
        return True

    def _drain(self, awaited: Event, horizon: float) -> None:
        """Process events in ``(fire_time, sequence)`` order.

        Stops when ``awaited`` has triggered, when the queue is empty, or
        when the next event is due later than ``horizon``.
        """
        immediate = self._immediate
        pop_immediate = immediate.popleft
        future = self._future
        self._more_callbacks = False
        event: Optional[Event] = None
        callback: Optional[Callback] = None
        try:
            while not awaited._triggered:
                if immediate:
                    # A future event dequeues first only when it is due at
                    # the current instant with an earlier sequence number —
                    # exactly the (time, seq) order of a single heap.
                    if (
                        future
                        and future[0][0] <= self._now
                        and future[0][1] < immediate[0]._seq
                    ):
                        _, seq, event = heappop(future)
                        if seq != event._seq:
                            continue  # a deadline whose wait woke already
                    else:
                        event = pop_immediate()
                elif future:
                    if future[0][0] > horizon:
                        return
                    fire_at, seq, event = heappop(future)
                    self._now = fire_at
                    if seq != event._seq:
                        continue
                else:
                    return
                if not event._triggered:
                    # Only a parked process is queued untriggered: its wait
                    # is over, popped as the event the wait would have been.
                    parked: Any = event
                    self._processed_events += 1
                    if _pop_observer is not None:
                        shown = parked._shown
                        shown._fire_at = self._now
                        shown._seq = parked._seq
                        _pop_observer(self._now, shown)
                    hold = parked._hold
                    if hold is None:
                        parked._resume(parked)
                    else:
                        # A queued serve's grant: its service starts now.
                        parked._hold = None
                        parked._park_for(hold)
                    continue
                if _pop_observer is not None:
                    _pop_observer(self._now, event)
                callbacks = event.callbacks
                event.callbacks = None
                self._processed_events += 1
                if callbacks:
                    if len(callbacks) > 1:
                        # Only the last callback may fire grants in place:
                        # the processes behind it have not run yet.
                        self._more_callbacks = True
                        for callback in callbacks[:-1]:
                            callback(event)
                        self._more_callbacks = False
                    callbacks[-1](event)
        finally:
            # A failure's traceback may keep this frame (a finished
            # frame's ``f_back``, 3.12), so it keeps no event it popped.
            event = parked = callbacks = callback = None

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        """Process events until the queue empties or the clock passes ``until``.

        ``until`` is an absolute simulation time.  When provided, the clock
        is advanced exactly to ``until`` even if the last processed event
        fired earlier, so bandwidth windows measured against ``env.now``
        have the expected width.
        """
        if self._closed:
            raise SimulationError("the environment is closed")
        never = Event(self)  # untriggered: only the queue or ``until`` stops it
        if until is None:
            self._drain(never, float("inf"))
            return
        if until < self._now:
            raise SimulationError(
                f"cannot run until {until}; clock is already at {self._now}"
            )
        self._drain(never, until)
        self._now = max(self._now, until)

    def run_until_complete(self, event: Event, limit: float = float("inf")) -> Any:
        """Run until ``event`` fires; return its value (raise if it failed).

        ``limit`` bounds the simulated time as a safety net against model
        deadlocks: an event due later than ``limit`` is not processed, and
        :class:`SimulationError` is raised instead.
        """
        if self._closed:
            raise SimulationError("the environment is closed")
        self._drain(event, limit)
        if not event._triggered:
            if self.queued_events:
                raise SimulationError(f"simulation exceeded time limit {limit}")
            raise SimulationError(
                "event queue drained before the awaited event fired "
                "(model deadlock?)"
            )
        if event._failed:
            raise event._value
        return event._value
