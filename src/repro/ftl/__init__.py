"""Shared FTL substrate: device core, pooling, streams, GC victims, buffers."""

from repro._lazy import lazy_exports

__all__ = [
    "AllocationStream",
    "DeviceStats",
    "FlushBatch",
    "FreeBlockPool",
    "FtlCore",
    "GcItem",
    "WriteBuffer",
    "greedy_victim",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": ("DeviceStats", "FlushBatch", "FtlCore", "GcItem"),
    "pool": ("AllocationStream", "FreeBlockPool"),
    "victim": ("greedy_victim",),
    "writebuffer": ("WriteBuffer",),
})
