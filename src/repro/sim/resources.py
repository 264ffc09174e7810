"""Shared-resource primitives for the simulation engine.

Two primitives cover every contention point in the SSD models:

* :class:`Resource` — a counted server with a FIFO wait queue.  Flash
  channels, dies, controller cores, and NVMe submission slots are all
  Resources with different capacities.
* :class:`TokenBucket` — a counted pool of indistinguishable tokens with
  blocking ``get``/non-blocking ``put``.  Device write-buffer slots and
  free-space reservations are token buckets; exhaustion is how write stalls
  (and therefore foreground-GC bandwidth collapse) emerge in the model.

Both hand out grants strictly in request order, preserving the engine's
determinism guarantee.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Union

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Process, _stand_in


class Request(Event):
    """The event granted to a :class:`Resource` user; release via the resource."""

    __slots__ = ()


class Resource:
    """A server with ``capacity`` concurrent slots and a FIFO queue.

    Inside a process, ``yield resource.serve(service_time)`` waits for a
    slot, holds it for ``service_time`` and gives it back; the process is
    resumed once, when the service is over.  A caller that
    needs the slot across several steps pairs the calls itself::

        request = resource.request()
        yield request
        try:
            yield env.timeout(service_time)
        finally:
            resource.release(request)
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_service = 0
        #: Bare requests and processes parked by a queued serve, in order.
        self._waiting: Deque[Union[Request, Process]] = deque()
        # Utilization accounting: busy slot-time integrated over the run.
        self._busy_slot_time = 0.0
        self._last_change = 0.0
        #: What the pop observer is shown for a serve's grant: fired in
        #: place, or queued (the parked process popped as its grant).
        self._in_place = _stand_in(Request, env)
        self._granted = _stand_in(Request, env)
        #: Bound once: every serve arms it as its process's on-wake step.
        self._release = self._end_service

    @property
    def in_service(self) -> int:
        """Number of grants currently outstanding."""
        return self._in_service

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def busy_fraction(self) -> float:
        """Mean fraction of slots busy since construction."""
        elapsed = self.env.now
        if elapsed <= 0.0:
            return 0.0
        self._account()
        return self._busy_slot_time / (elapsed * self.capacity)

    def busy_slot_us(self) -> float:
        """Integrated busy slot-time; diff two readings for an interval."""
        self._account()
        return self._busy_slot_time

    def _account(self) -> None:
        now = self.env._now
        self._busy_slot_time += self._in_service * (now - self._last_change)
        self._last_change = now

    def request(self) -> Request:
        """Ask for a slot; the returned event fires when the slot is granted."""
        grant = Request(self.env)
        if self._in_service < self.capacity and not self._waiting:
            self._account()
            self._in_service += 1
            grant.succeed(self)
        else:
            self._waiting.append(grant)
        return grant

    def release(self, request: Request) -> None:
        """Return a previously granted slot, waking the next waiter if any."""
        if not request._triggered:
            raise SimulationError("cannot release a request that was never granted")
        self._end_service()

    def serve(self, duration: float) -> Event:
        """Acquire a slot, hold it for ``duration``, then release it.

        A plain call whose result the calling process yields at once:
        ``yield resource.serve(duration)``.  It takes the slot (or a place
        in the queue) and arms the release as the running process's
        on-wake step, so the process is resumed once, when the service is
        over and the slot already handed on.  The result is always the
        environment's :class:`~repro.sim.engine.Sleep` token; no grant or
        timeout object exists.  A grant that would be the next event
        popped is fired in place (:meth:`Environment._fire_in_place`) and
        the token carries ``duration``: the process sleeps in the event
        heap itself.  Any other grant parks the process — in the FIFO
        when the slot is free, in this resource's queue when it is not —
        and the grant's pop parks it again for ``duration``.
        Dropping the result leaks the slot; simlint (SIM003) flags it.
        """
        if duration < 0:
            raise SimulationError(f"service time must be >= 0, got {duration}")
        env = self.env
        process = env._active
        if process is None:
            raise SimulationError("serve() called with no process running")
        if process._on_wake is not None:
            raise SimulationError(
                f"process {process.name!r} called serve() before yielding "
                "the result of its previous serve()"
            )
        process._on_wake = self._release
        sleep = env._sleep
        if self._in_service < self.capacity and not self._waiting:
            # _account(), inlined: serve brackets every flash op.
            now = env._now
            self._busy_slot_time += self._in_service * (now - self._last_change)
            self._last_change = now
            self._in_service += 1
            # (The FIFO is looked at here first: a tie is the usual reason
            # a free slot's grant queues, and costs no call to see.)
            if not env._immediate and env._fire_in_place(self._in_place):
                sleep.delay = duration
                return sleep
            process._park_now(self._granted)
        else:
            self._waiting.append(process)
        process._hold = duration
        sleep.delay = None
        return sleep

    def close(self) -> None:
        """Empty the queue of an ended simulation and end the processes
        in it, as :meth:`~repro.sim.engine.Environment.close` does with
        its own: a process still waiting here holds its model through its
        frame."""
        waiting = list(self._waiting)
        self._waiting.clear()
        for waiter in waiting:
            if isinstance(waiter, Process):
                waiter.end()

    def _end_service(self) -> None:
        """Give a slot back: the on-wake step of a served process."""
        # _account(), inlined.
        now = self.env._now
        self._busy_slot_time += self._in_service * (now - self._last_change)
        self._last_change = now
        if self._waiting:
            waiter = self._waiting.popleft()
            if isinstance(waiter, Request):
                waiter.succeed(self)
            else:
                waiter._park_now(self._granted)
        else:
            self._in_service -= 1


class TokenBucket:
    """A pool of ``capacity`` tokens with blocking acquisition.

    ``get(n)`` returns an event that fires once ``n`` tokens are available
    and removes them; ``put(n)`` returns tokens immediately.  Waiters are
    served in strict FIFO order — a large request at the head of the queue
    blocks smaller requests behind it, which mirrors how an SSD write
    buffer admits requests in arrival order.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int,
        initial: Optional[int] = None,
        name: str = "",
    ) -> None:
        if capacity < 1:
            raise SimulationError(f"token capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._available = capacity if initial is None else initial
        if not 0 <= self._available <= capacity:
            raise SimulationError(
                f"initial tokens {self._available} outside [0, {capacity}]"
            )
        self._waiting: Deque[tuple] = deque()  # (event, amount)
        #: What the pop observer is shown for a grant fired in place: an
        #: event already triggered and processed.
        self._in_place = _stand_in(Event, env)

    @property
    def available(self) -> int:
        """Tokens currently free for taking."""
        return self._available

    @property
    def queue_length(self) -> int:
        """Number of blocked ``get`` requests."""
        return len(self._waiting)

    def _check(self, amount: int) -> None:
        if amount < 1:
            raise SimulationError(f"token amount must be >= 1, got {amount}")
        if amount > self.capacity:
            raise SimulationError(
                f"requested {amount} tokens but capacity is {self.capacity}"
            )

    def take(self, amount: int = 1) -> bool:
        """Take ``amount`` tokens without waiting, when that changes nothing.

        True when :meth:`get` would grant at once and its event would be
        the next one popped (:meth:`Environment._fire_in_place`): the
        tokens are taken and the caller carries on.  False, with nothing
        taken, when the caller has to ``yield bucket.get(amount)``.
        """
        self._check(amount)
        if (
            self._waiting
            or self._available < amount
            or not self.env._fire_in_place(self._in_place)
        ):
            return False
        self._available -= amount
        return True

    def get(self, amount: int = 1) -> Event:
        """Take ``amount`` tokens; the event fires when they are granted."""
        self._check(amount)
        grant = Event(self.env)
        if not self._waiting and self._available >= amount:
            self._available -= amount
            grant.succeed(amount)
        else:
            self._waiting.append((grant, amount))
        return grant

    def put(self, amount: int = 1) -> None:
        """Return ``amount`` tokens and serve any waiters now satisfiable."""
        if amount < 1:
            raise SimulationError(f"token amount must be >= 1, got {amount}")
        self._available += amount
        if self._available > self.capacity:
            raise SimulationError(
                f"token bucket overflow: {self._available} > {self.capacity}"
            )
        while self._waiting and self._available >= self._waiting[0][1]:
            grant, need = self._waiting.popleft()
            self._available -= need
            grant.succeed(need)
