"""Direct block I/O API (the paper's block-SSD direct-access path).

Wraps a :class:`~repro.blockftl.device.BlockSSD` with the same driver
model the KV API uses, so host CPU and submission-path costs are charged
identically and device comparisons are apples-to-apples.  Block commands
always fit one NVMe submission entry.
"""

from typing import Generator

from repro.api.envelope import DeviceAPI
from repro.sim.engine import Event


class BlockDeviceAPI(DeviceAPI):
    """Host-side entry point for direct reads/writes on a block SSD."""

    component = "block-api"

    def write(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """Direct write (timed host-to-completion process)."""
        return self._command("write", (offset, nbytes), nbytes=nbytes)

    def read(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """Direct read."""
        return self._command("read", (offset, nbytes), nbytes=nbytes)

    def deallocate(self, offset: int, nbytes: int) -> Generator[Event, None, None]:
        """TRIM a range."""
        return self._command("deallocate", (offset, nbytes), nbytes=nbytes)
