"""The NVMe command envelope: the one way a host call reaches a device."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from repro.errors import DeviceError
from repro.nvme.command import commands_for_key, status_for_error
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment, Event


@dataclass(eq=False)
class DeviceAPI:
    """A device behind the kernel driver.  A subclass names its commands;
    each command is one :meth:`_command`."""

    env: Environment
    device: Any
    driver: KernelDeviceDriver
    sync: bool = False
    #: Host CPU the API library itself burns per call (validation,
    #: buffer handoff) — deliberately tiny.
    LIBRARY_CPU_US = 1.0

    def _command(
        self, name: str, args: tuple, key_bytes: Optional[int] = None, **tags: int
    ) -> Generator[Event, None, Any]:
        """The device's ``name(*args)`` as one timed host-to-completion
        command, on a span of that name that ``tags`` annotate.

        A keyed command (``key_bytes`` given) needs a second submission
        entry when the key does not fit inline, and tells the device.  A
        device error propagates with ``nvme_status`` attached — the
        completion-queue status a real driver would report — after the
        driver has accounted the error completion.
        """
        call = getattr(self.device, name)
        span = self.device.tracer.op(name)
        try:
            ncommands, told = 1, {}
            if key_bytes is not None:
                ncommands = told["ncommands"] = commands_for_key(key_bytes)
                tags = {"key_bytes": key_bytes, **tags}
            driver = self.driver
            driver.cpu.charge(self.LIBRARY_CPU_US)
            span.enter("nvme")
            yield from driver.submit(ncommands, self.sync)
            try:
                result = yield from call(*args, span=span, **told)
            except DeviceError as exc:
                exc.nvme_status = status = status_for_error(exc)
                driver.complete(1, status=status)
                raise
            driver.complete(1)
        finally:
            span.finish(**tags)
        return result
