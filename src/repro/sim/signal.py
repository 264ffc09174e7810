"""Broadcast signal: a re-armable condition variable for processes.

A :class:`Signal` lets any number of processes wait for "something
changed" notifications — the flusher waits for new dirty data, the GC
worker waits for low-space announcements.  Unlike an :class:`Event`, a
signal can be notified repeatedly; each notification wakes everyone who
was waiting at that moment.

A process that waits on nothing else parks on the signal itself
(``yield signal.park()``): no event is built, and the wake pops as the
:class:`~repro.sim.engine.Event` that :meth:`Signal.wait` would have
returned.  ``wait()`` is for a wait inside ``any_of``/``all_of``.
"""

from __future__ import annotations

from typing import List, Union

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, Process


class Signal:
    """Re-armable broadcast wakeup."""

    def __init__(self, env: Environment, name: str = "") -> None:
        self.env = env
        self.name = name
        #: Events from wait() and processes parked by park(), in order.
        self._waiters: List[Union[Event, Process]] = []
        self._notify_count = 0

    @property
    def notify_count(self) -> int:
        """Number of notifications delivered (diagnostic)."""
        return self._notify_count

    @property
    def waiting(self) -> int:
        """Number of processes currently parked on the signal."""
        return len(self._waiters)

    def wait(self) -> Event:
        """Return an event that fires at the next :meth:`notify_all`."""
        waiter = Event(self.env)
        self._waiters.append(waiter)
        return waiter

    def park(self) -> Event:
        """Park the running process until the next :meth:`notify_all`.

        ``yield signal.park()`` is ``yield signal.wait()`` with the process
        itself as the waiter.  Yield the result at once: dropped, it leaves
        the process queued on the signal while it runs on (simlint SIM003
        flags it).
        """
        env = self.env
        process = env._active
        if process is None:
            raise SimulationError("park() called with no process running")
        self._waiters.append(process)
        sleep = env._sleep
        sleep.delay = None
        return sleep

    def notify_all(self) -> None:
        """Wake every process currently waiting."""
        self._notify_count += 1
        waiters, self._waiters = self._waiters, []
        fired = self.env._fired
        for waiter in waiters:
            if isinstance(waiter, Process):
                waiter._park_now(fired)
            else:
                waiter.succeed(None)
