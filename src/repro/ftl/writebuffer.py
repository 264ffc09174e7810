"""Device DRAM write buffer.

Host writes complete once their payload is admitted to the device's DRAM
buffer; flushing to flash happens asynchronously.  This is why real SSDs
report ~30 us writes against ~700 us NAND programs — and it is also the
stall mechanism: when flash (plus garbage collection) cannot drain the
buffer as fast as the host fills it, admission blocks and host-visible
write latency collapses to flash speed.  Fig. 6's foreground-GC bandwidth
troughs emerge exactly here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.errors import ConfigurationError
from repro.sim.engine import Environment, Event
from repro.sim.resources import TokenBucket

if TYPE_CHECKING:
    # Lives above this layer; imported for annotations only.
    from repro.ftl.core import DeviceStats


class WriteBuffer:
    """Byte-granular admission control for the device write path.

    ``admit(nbytes)`` blocks the calling process until buffer space is
    available, adding the wait to the device's ``buffer_stall_us``; the
    flush machinery calls ``drain(nbytes)`` once the data has been
    programmed to flash.
    """

    def __init__(
        self,
        env: Environment,
        capacity_bytes: int,
        stats: "DeviceStats",
        name: str = "",
    ) -> None:
        if capacity_bytes < 1:
            raise ConfigurationError(
                f"write buffer capacity must be >= 1 byte, got {capacity_bytes}"
            )
        self.env = env
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._tokens = TokenBucket(env, capacity_bytes, name=f"{name}.tokens")
        self._stats = stats

    @property
    def occupied_bytes(self) -> int:
        """Bytes currently buffered and awaiting flush."""
        return self.capacity_bytes - self._tokens.available

    def admit(self, nbytes: int) -> Generator[Event, None, None]:
        """Block until ``nbytes`` of buffer space is granted.

        Requests larger than the whole buffer are admitted in
        buffer-capacity chunks, which models how a device accepts a 2 MiB
        value through a smaller internal buffer.
        """
        env = self.env
        started = env._now
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, self.capacity_bytes)
            if not self._tokens.take(chunk):
                yield self._tokens.get(chunk)
            remaining -= chunk
        self._stats.buffer_stall_us += env._now - started

    def drain(self, nbytes: int) -> None:
        """Release ``nbytes`` of buffer space after flash programming."""
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, self.capacity_bytes)
            self._tokens.put(chunk)
            remaining -= chunk
