"""Garbage-collection victim selection.

Both personalities choose erase victims among CLOSED blocks greedily:
the block with the fewest valid bytes, which is optimal for uniform
traffic and what most firmware ships.  An ``eligible`` predicate lets a
personality fence off blocks GC must never touch (the KV device's
on-flash index region).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.flash.nand import BlockState, FlashArray


def greedy_victim(
    array: FlashArray, eligible: Optional[Callable[[int], bool]] = None
) -> Optional[int]:
    """Closed block with the fewest valid bytes, or None if none closed."""
    best_index: Optional[int] = None
    best_valid = None
    for block_index, info in enumerate(array.blocks):
        if info.state is not BlockState.CLOSED:
            continue
        if eligible is not None and not eligible(block_index):
            continue
        if best_valid is None or info.valid_bytes < best_valid:
            best_valid = info.valid_bytes
            best_index = block_index
            if best_valid == 0:
                break
    return best_index
