"""SNIA KVS API library model.

User applications talk to the KV-SSD through this thin library (Sec. II):
it validates arguments, builds vendor-specific NVMe commands, and submits
them through the kernel device driver.  Its thinness is the point — the
paper's RQ1 finding is that this stack consumes ~13x less host CPU than
RocksDB-on-block, because indexing and compaction moved into the device.

Both synchronous and asynchronous modes are provided, as in the real API;
"async" here means the caller may hold many operations in flight (the
workload runner manages queue depth), while "sync" additionally pays
blocking-wait CPU per command.

Device errors surface as the :mod:`repro.errors` exceptions with an
``nvme_status`` attribute attached — the completion-queue status code a
real driver would report (:class:`~repro.nvme.command.NvmeStatus`) — and
the driver accounts the error completion before the exception propagates.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import DeviceError
from repro.kvftl.device import KVSSD
from repro.nvme.command import commands_for_key, status_for_error
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment, Event


class KVStoreAPI:
    """Host-side entry point for KV operations against a :class:`KVSSD`."""

    #: Host CPU the API library itself burns per call (validation,
    #: buffer handoff) — deliberately tiny.
    LIBRARY_CPU_US = 1.0

    def __init__(
        self,
        env: Environment,
        device: KVSSD,
        driver: KernelDeviceDriver,
        sync: bool = False,
        component: str = "kv-api",
    ) -> None:
        self.env = env
        self.device = device
        self.driver = driver
        self.sync = sync
        self.component = component

    def _preamble(
        self, key: bytes, span
    ) -> Generator[Event, None, int]:
        ncommands = commands_for_key(len(key))
        self.driver.cpu.charge(self.component, self.LIBRARY_CPU_US)
        span.enter("nvme")
        yield from self.driver.submit(ncommands, self.sync, self.component)
        return ncommands

    def _fail(self, exc: DeviceError) -> None:
        """Account an error completion and tag the exception with it."""
        status = status_for_error(exc)
        exc.nvme_status = status
        self.driver.complete(1, self.component, status=status)

    def store(self, key: bytes, value_bytes: int) -> Generator[Event, None, None]:
        """Store a pair (timed host-to-completion process)."""
        span = self.device.tracer.op("store")
        try:
            ncommands = yield from self._preamble(key, span)
            try:
                yield from self.device.store(
                    key, value_bytes, ncommands=ncommands, span=span
                )
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(key_bytes=len(key), value_bytes=value_bytes)

    def retrieve(self, key: bytes) -> Generator[Event, None, int]:
        """Retrieve a pair; returns its value size."""
        span = self.device.tracer.op("retrieve")
        try:
            ncommands = yield from self._preamble(key, span)
            try:
                value_bytes = yield from self.device.retrieve(
                    key, ncommands=ncommands, span=span
                )
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(key_bytes=len(key))
        return value_bytes

    def delete(self, key: bytes) -> Generator[Event, None, None]:
        """Delete a pair."""
        span = self.device.tracer.op("delete")
        try:
            ncommands = yield from self._preamble(key, span)
            try:
                yield from self.device.delete(key, ncommands=ncommands, span=span)
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(key_bytes=len(key))

    def exist(self, key: bytes) -> Generator[Event, None, bool]:
        """Membership query; returns the device's verdict."""
        span = self.device.tracer.op("exist")
        try:
            ncommands = yield from self._preamble(key, span)
            try:
                present = yield from self.device.exist(
                    key, ncommands=ncommands, span=span
                )
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish(key_bytes=len(key))
        return present

    def iterate(self, prefix4: bytes, limit: int = 1024):
        """Prefix iteration (the SNIA iterator surface); returns keys."""
        span = self.device.tracer.op("iterate")
        try:
            self.driver.cpu.charge(self.component, self.LIBRARY_CPU_US)
            span.enter("nvme")
            yield from self.driver.submit(1, self.sync, self.component)
            try:
                keys = yield from self.device.iterate(
                    prefix4, limit, ncommands=1, span=span
                )
            except DeviceError as exc:
                self._fail(exc)
                raise
            self.driver.complete(1, self.component)
        finally:
            span.finish()
        return keys
