"""Hash-index key-value store over raw block storage (Aerospike stand-in)."""

from repro._lazy import lazy_exports

__all__ = ["HashKVConfig", "HashKVStore"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "store": ("HashKVConfig", "HashKVStore"),
})
