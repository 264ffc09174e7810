"""Host-facing device APIs: the SNIA KVS library and direct block I/O."""

from repro._lazy import lazy_exports

__all__ = ["BlockDeviceAPI", "KVStoreAPI"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "block": ("BlockDeviceAPI",),
    "kvs": ("KVStoreAPI",),
})
