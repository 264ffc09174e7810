"""Extent-based file system substrate (ext4 stand-in)."""

from repro._lazy import lazy_exports

__all__ = ["SimFileSystem"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "ext4": ("SimFileSystem",),
})
