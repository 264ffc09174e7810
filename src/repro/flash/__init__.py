"""NAND flash substrate: geometry, timing, and the timed array."""

from repro._lazy import lazy_exports

__all__ = [
    "BlockInfo",
    "BlockState",
    "FlashArray",
    "FlashTiming",
    "Geometry",
    "PageAddress",
    "scaled_pm983",
    "tiny_geometry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "geometry": ("Geometry", "PageAddress", "scaled_pm983", "tiny_geometry"),
    "nand": ("BlockInfo", "BlockState", "FlashArray"),
    "timing": ("FlashTiming",),
})
