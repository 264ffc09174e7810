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
"""

from typing import Generator

from repro.api.envelope import DeviceAPI
from repro.sim.engine import Event


class KVStoreAPI(DeviceAPI):
    """Host-side entry point for KV operations against a KV-SSD."""

    component = "kv-api"

    def store(self, key: bytes, value_bytes: int) -> Generator[Event, None, None]:
        """Store a pair (timed host-to-completion process)."""
        return self._command(
            "store", (key, value_bytes), len(key), value_bytes=value_bytes
        )

    def retrieve(self, key: bytes) -> Generator[Event, None, int]:
        """Retrieve a pair; returns its value size."""
        return self._command("retrieve", (key,), len(key))

    def delete(self, key: bytes) -> Generator[Event, None, None]:
        """Delete a pair."""
        return self._command("delete", (key,), len(key))

    def exist(self, key: bytes) -> Generator[Event, None, bool]:
        """Membership query; returns the device's verdict."""
        return self._command("exist", (key,), len(key))

    def iterate(self, prefix4: bytes, limit: int = 1024):
        """Prefix iteration (the SNIA iterator surface); returns keys."""
        return self._command("iterate", (prefix4, limit))
