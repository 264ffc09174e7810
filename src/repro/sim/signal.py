"""Broadcast signal: a re-armable condition variable for processes.

A :class:`Signal` lets any number of processes wait for "something
changed" notifications — the flusher waits for new dirty data, the GC
worker waits for low-space announcements.  Unlike an :class:`Event`, a
signal can be notified repeatedly; each notification wakes everyone who
was waiting at that moment.

A process that waits on nothing else parks on the signal itself
(``yield signal.park()``): no event is built, and the wake pops as the
:class:`~repro.sim.engine.Event` that :meth:`Signal.wait` would have
returned.  ``yield signal.park(timeout=d)`` wakes as ``yield env.any_of(
[signal.wait(), env.timeout(d)])`` did.  ``wait()`` is for a wait inside
``any_of``/``all_of``.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Optional, Union

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Process


class Signal:
    """Re-armable broadcast wakeup."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        #: Events from wait() and processes parked by park(), in order, to
        #: their deadline: one due has left, and a notify passes it over.
        self._waiters: Dict[Union[Event, Process], float] = {}
        self._notify_count = 0

    @property
    def notify_count(self) -> int:
        """Number of notifications delivered (diagnostic)."""
        return self._notify_count

    @property
    def waiting(self) -> int:
        """Number of processes currently parked on the signal."""
        return sum(due > self.env._now for due in self._waiters.values())

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`notify_all`."""
        waiter = Event(self.env)
        self._waiters[waiter] = inf
        return waiter

    def park(self, timeout: Optional[float] = None) -> Event:
        """Park the running process until the next :meth:`notify_all`, or
        for at most ``timeout``, in the queue under the sequence number
        ``env.timeout(timeout)`` would take.  The first wake parks it once
        more, where ``any_of`` popped; the other pops as nothing.

        ``yield signal.park()`` is ``yield signal.wait()`` with the process
        itself as the waiter.  Yield the result at once: dropped, it leaves
        the process queued on the signal while it runs on (simlint SIM003
        flags it).
        """
        env = self.env
        process = env._active
        if process is None:
            raise SimulationError("park() called with no process running")
        deadline = inf
        if timeout is not None:
            if timeout < 0:
                raise SimulationError(f"park timeout must be >= 0, got {timeout}")
            deadline = env._now + timeout
            process._hold = 0.0  # woken, it parks once more: the hop
            process._park_for(timeout)
        # (Re-parked after its deadline, it joins at the end.)
        self._waiters.pop(process, None)
        self._waiters[process] = deadline
        sleep = env._sleep
        sleep.delay = None
        return sleep

    def notify_all(self) -> None:
        """Wake every process currently waiting."""
        self._notify_count += 1
        waiters, self._waiters = self._waiters, {}
        fired, now = self.env._fired, self.env._now
        for waiter, deadline in waiters.items():
            if deadline <= now:
                continue  # its deadline fired, or is due before this wake
            if isinstance(waiter, Process):
                waiter._park_now(fired)
            else:
                waiter.succeed(None)
