"""Block-SSD firmware personality (page-mapped FTL baseline)."""

from repro._lazy import lazy_exports

__all__ = ["BlockSSD", "BlockSSDConfig", "PageMap", "SegmentCache", "UNMAPPED"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("BlockSSDConfig",),
    "device": ("BlockSSD",),
    "mapping": ("UNMAPPED", "PageMap", "SegmentCache"),
})
