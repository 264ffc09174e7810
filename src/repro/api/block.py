"""Direct block I/O API (the paper's block-SSD direct-access path).

Wraps a :class:`~repro.blockftl.device.BlockSSD` with the same driver
model the KV API uses, so host CPU and submission-path costs are charged
identically and device comparisons are apples-to-apples.  Block commands
always fit one NVMe submission entry.

Device errors surface as the :mod:`repro.errors` exceptions with an
``nvme_status`` attribute attached (the completion-queue status a real
driver would report), after the driver accounts the error completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import DeviceError
from repro.nvme.command import status_for_error
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:
    from repro.blockftl.device import BlockSSD


class BlockDeviceAPI:
    """Host-side entry point for direct reads/writes on a block SSD."""

    LIBRARY_CPU_US = 1.0

    def __init__(
        self,
        env: Environment,
        device: BlockSSD,
        driver: KernelDeviceDriver,
        sync: bool = False,
        component: str = "block-api",
    ) -> None:
        self.env = env
        self.device = device
        self.driver = driver
        self.sync = sync
        self.component = component

    def _fail(self, exc: DeviceError) -> None:
        """Account an error completion and tag the exception with it."""
        status = status_for_error(exc)
        exc.nvme_status = status
        self.driver.complete(1, self.component, status=status)

    def write(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """Direct write (timed host-to-completion process)."""
        span = self.device.tracer.op("write")
        try:
            self.driver.cpu.charge(self.component, self.LIBRARY_CPU_US)
            span.enter("nvme")
            yield from self.driver.submit(1, self.sync, self.component)
            try:
                yield from self.device.write(offset, nbytes, span=span)
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(nbytes=nbytes)

    def read(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """Direct read."""
        span = self.device.tracer.op("read")
        try:
            self.driver.cpu.charge(self.component, self.LIBRARY_CPU_US)
            span.enter("nvme")
            yield from self.driver.submit(1, self.sync, self.component)
            try:
                yield from self.device.read(offset, nbytes, span=span)
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(nbytes=nbytes)

    def deallocate(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """TRIM a range."""
        span = self.device.tracer.op("deallocate")
        try:
            self.driver.cpu.charge(self.component, self.LIBRARY_CPU_US)
            span.enter("nvme")
            yield from self.driver.submit(1, self.sync, self.component)
            try:
                yield from self.device.deallocate(offset, nbytes, span=span)
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(nbytes=nbytes)
