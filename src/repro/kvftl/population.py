"""Primed key populations: bulk device fills with arithmetic state.

The paper's occupancy experiments store up to 3 billion KVPs before the
measured phase (Fig. 3, Fig. 6).  Holding a Python object per primed pair
would dwarf host memory, so a fill is represented *functionally*:

* keys follow a :class:`KeyScheme` (prefix + zero-padded decimal index),
  so membership and key<->index conversion are O(1) arithmetic;
* placement is recorded per *page* (two parallel 32-bit arrays: which
  block and which page each page-worth of blobs went to, 8 bytes a fill
  page), so a pair's flash location is computed from its index;
* subsequent updates/deletes/relocations are tracked in small overlay
  structures (an overridden set and a relocation map) that grow only with
  the number of *simulated* operations, not with the fill size.

The workload generators use the same schemes, so primed pairs are
indistinguishable from individually stored ones at the API.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterator, Optional, Set, Tuple


@dataclass(frozen=True)
class KeyScheme:
    """Deterministic key naming: ``prefix`` + zero-padded decimal index."""

    prefix: bytes = b"key-"
    digits: int = 12
    #: Length of every key this scheme produces, of its prefix, and the
    #: number of keys it can name: derived once (every lookup of a primed
    #: key reads the first two, every ``key_for`` the third).
    key_bytes: int = field(init=False, repr=False, compare=False)
    _prefix_bytes: int = field(init=False, repr=False, compare=False)
    _limit: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.digits < 1:
            raise ValueError(f"digits must be >= 1, got {self.digits}")
        object.__setattr__(self, "_prefix_bytes", len(self.prefix))
        object.__setattr__(self, "key_bytes", len(self.prefix) + self.digits)
        object.__setattr__(self, "_limit", 10 ** self.digits)

    def key_for(self, index: int) -> bytes:
        """The key naming pair number ``index``; past the scheme's digits
        zfill would outgrow ``key_bytes`` and ``index_of`` reject the key."""
        if not 0 <= index < self._limit:
            raise ValueError(
                f"key index must be in [0, {self._limit}), got {index}"
            )
        return self.prefix + str(index).zfill(self.digits).encode("ascii")

    def index_of(self, key: bytes) -> Optional[int]:
        """Inverse of :meth:`key_for`; None for keys outside the scheme."""
        if len(key) != self.key_bytes or not key.startswith(self.prefix):
            return None
        suffix = key[self._prefix_bytes:]
        if not suffix.isdigit():
            return None
        return int(suffix)

    def lead_span(self, lead_bytes: int) -> int:
        """How many consecutive indices share their keys' first
        ``lead_bytes`` bytes (1 when a key is no longer than the lead)."""
        varying = self.digits - max(0, lead_bytes - self._prefix_bytes)
        return 10 ** max(0, varying)

    def indices_starting(self, lead: bytes) -> range:
        """Indices whose keys begin with ``lead``: one contiguous range,
        since the index is zero-padded decimal."""
        if len(lead) <= self._prefix_bytes:
            return range(self._limit if self.prefix.startswith(lead) else 0)
        head = lead[self._prefix_bytes:]
        if (
            not lead.startswith(self.prefix)
            or len(head) > self.digits
            or not head.isdigit()
        ):
            return range(0)
        span = self.lead_span(len(lead))
        return range(int(head) * span, (int(head) + 1) * span)


def run_pages(
    first_seq: int, seq_stride: int, first_page: int, pages: int
) -> Iterator[Tuple[int, int]]:
    """``(page_seq, page)`` of each fill page of one committed run: a
    block takes every ``seq_stride``-th fill page into consecutive pages."""
    for step in range(pages):
        yield first_seq + step * seq_stride, first_page + step


@dataclass
class PrimedPopulation:
    """State of one bulk fill."""

    scheme: KeyScheme
    count: int
    value_bytes: int
    footprint_bytes: int
    blobs_per_page: int
    #: Block index of each consecutive page of the fill.
    page_blocks: array[int] = field(default_factory=partial(array, "i"))
    #: Page-within-block of each consecutive page of the fill.
    page_indices: array[int] = field(default_factory=partial(array, "i"))
    #: Pair indices whose primed copy is dead (updated or deleted).
    overridden: Set[int] = field(default_factory=set)
    #: Pair indices whose primed copy was moved by GC -> (block, page).
    relocated: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def live_count(self) -> int:
        """Primed pairs whose primed identity is still current."""
        return self.count - len(self.overridden)

    def page_of(self, index: int) -> int:
        """Which consecutive fill page pair ``index`` was packed into."""
        self._check(index)
        return index // self.blobs_per_page

    def location_of(self, index: int) -> Tuple[int, int]:
        """Current (block, page) of the pair's blob."""
        self._check(index)
        moved = self.relocated.get(index)
        if moved is not None:
            return moved
        page_seq = index // self.blobs_per_page
        return self.page_blocks[page_seq], self.page_indices[page_seq]

    def lookup(self, key: bytes) -> Optional[int]:
        """Index of a *live* primed pair named ``key``, else None."""
        index = self.scheme.index_of(key)
        if index is None or index >= self.count or index in self.overridden:
            return None
        return index

    def override(self, index: int) -> None:
        """Mark the primed copy of pair ``index`` dead."""
        self._check(index)
        if index in self.overridden:
            raise ValueError(f"pair {index} already overridden")
        self.overridden.add(index)
        self.relocated.pop(index, None)

    def relocate(self, index: int, block: int, page: int) -> None:
        """Record a GC move of the primed blob for pair ``index``."""
        self._check(index)
        if index in self.overridden:
            raise ValueError(f"cannot relocate overridden pair {index}")
        self.relocated[index] = (block, page)

    def indices_in_fill_page(self, page_seq: int) -> range:
        """Pair indices originally packed into fill page ``page_seq``."""
        if not 0 <= page_seq < len(self.page_blocks):
            raise ValueError(f"fill page {page_seq} out of range")
        start = page_seq * self.blobs_per_page
        return range(start, min(start + self.blobs_per_page, self.count))

    def _check(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise ValueError(f"pair index {index} outside [0, {self.count})")
