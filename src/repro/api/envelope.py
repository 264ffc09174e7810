"""The NVMe command envelope: the one way a host call reaches a device."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.errors import DeviceError
from repro.nvme.command import NvmeStatus, commands_for_key, status_for_error
from repro.nvme.driver import (
    CPU_ASYNC_US,
    CPU_COMPLETE_US,
    CPU_SYNC_EXTRA_US,
    SUBMIT_US,
    TRACK,
    KernelDeviceDriver,
)
from repro.sim.engine import Environment, Event


@dataclass(eq=False)
class DeviceAPI:
    """A device behind the kernel driver.  A subclass names its commands;
    each command is one :meth:`_command`.

    Whether commands keep op spans and the driver its ``nvme`` records is
    decided here, once: the device bound its tracer when it was built.
    """

    env: Environment
    device: Any
    driver: KernelDeviceDriver
    sync: bool = False
    #: The device's tracer when it keeps op spans, else ``None``.
    _op_tracer: Any = field(init=False, repr=False)
    #: The driver's tracer when it keeps ``nvme`` records, else ``None``.
    _nvme_tracer: Any = field(init=False, repr=False)
    #: Host CPU the API library itself burns per call (validation,
    #: buffer handoff) — deliberately tiny.
    LIBRARY_CPU_US = 1.0

    def __post_init__(self) -> None:
        tracer = self.device.tracer
        self._op_tracer = tracer if tracer.wants("op") else None
        nvme = self.driver.tracer
        self._nvme_tracer = nvme if nvme is not None and nvme.wants("nvme") else None

    def _command(
        self, name: str, args: tuple, key_bytes: Optional[int] = None, **tags: int
    ) -> Generator[Event, None, Any]:
        """The device's ``name(*args)`` as one timed host-to-completion
        command, on a span of that name that ``tags`` annotate.

        The host side runs here: the library's CPU, one ``SUBMIT_US``
        serve on the driver's submission path and one per-entry CPU charge
        per submission entry, the device's method, then the completion.  A
        keyed command (``key_bytes`` given) needs a second entry when the
        key does not fit inline, and tells the device.  A device error
        propagates with ``nvme_status`` attached — the completion-queue
        status a real driver would report — after the driver has accounted
        the error completion.  An untraced command calls no tracer and
        leaves the device method its ``NULL_SPAN`` default.
        """
        tracer = self._op_tracer
        span = None if tracer is None else tracer.op(name)
        try:
            method = getattr(self.device, name)
            if key_bytes is None:
                ncommands = 1
                work = method(*args) if span is None else method(*args, span=span)
            else:
                # An empty key still takes its one entry: the device judges
                # the key, and fails it with its status.
                ncommands = commands_for_key(key_bytes or 1)
                if span is None:
                    work = method(*args, ncommands=ncommands)
                else:
                    tags = {"key_bytes": key_bytes, **tags}
                    work = method(*args, span=span, ncommands=ncommands)
            driver = self.driver
            cpu = driver.cpu
            cpu.total_busy_us += self.LIBRARY_CPU_US
            if span is not None:
                span.enter("nvme")
            cpu.total_busy_us += ncommands * (
                CPU_ASYNC_US + (CPU_SYNC_EXTRA_US if self.sync else 0.0)
            )
            nvme = self._nvme_tracer
            started = 0.0 if nvme is None else self.env.now
            submission_path = driver.submission_path
            for _ in range(ncommands):
                yield submission_path.serve(SUBMIT_US)
            driver.commands_submitted += ncommands
            if nvme is not None:
                nvme.complete(
                    TRACK, "submit", "nvme", self.env.now - started,
                    args={"n": ncommands, "sync": self.sync},
                )
            try:
                result = yield from work
            except DeviceError as exc:
                exc.nvme_status = status = status_for_error(exc)
                driver.complete_error(status)
                raise
            cpu.total_busy_us += CPU_COMPLETE_US
            driver.commands_completed += 1
            driver.last_status = NvmeStatus.SUCCESS
            if nvme is not None:
                nvme.instant(
                    TRACK, "complete", "nvme",
                    args={"n": 1, "status": NvmeStatus.SUCCESS.name},
                )
        finally:
            if span is not None:
                span.finish(**tags)
        return result
