"""Host-side storage stacks: file system, LSM-tree store, hash-index store."""

from repro._lazy import lazy_exports

__all__ = [
    "HashKVConfig",
    "HashKVStore",
    "LSMConfig",
    "LSMStore",
    "SimFileSystem",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "fs.ext4": ("SimFileSystem",),
    "hashkv.store": ("HashKVConfig", "HashKVStore"),
    "lsm.store": ("LSMConfig", "LSMStore"),
})
