"""Block manifests: what the KV personality wrote to each flash block.

Garbage collection censuses a victim block from its manifest, in the
order the entries were written, and that order is the order live blobs
are relocated in.  A manifest keeps two parallel columns, one entry per
position:

* a stored pair's fragment: ``owners`` holds the key and ``codes``
  ``frag_index << FRAG_SHIFT | nbytes << PAGE_BITS | page``;
* a primed pair GC moved here: ``owners`` holds its population's position
  in fill order (an int) and ``codes`` ``pair << PAGE_BITS | page``; its
  size is the population's footprint;
* a run of fill pages: ``owners`` holds the
  ``("pr", pop_index, first_seq, seq_stride, first_page, pages)`` tuple
  (see :func:`repro.kvftl.population.run_pages`) and ``codes`` 0.

An entry costs a list slot and eight bytes of ``array`` instead of a
tuple and its boxed fields.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Tuple, Union

#: Bits of a code that hold the page within the block.
PAGE_BITS = 20
#: Bits of a fragment's code that hold its size in bytes.
BYTES_BITS = 24
#: Where a fragment's index starts in its code.
FRAG_SHIFT = PAGE_BITS + BYTES_BITS
PAGE_MASK = (1 << PAGE_BITS) - 1
BYTES_MASK = (1 << BYTES_BITS) - 1

#: A fill run's tuple.
FillRun = Tuple[str, int, int, int, int, int]


class BlockManifest:
    """One block's entries, in program order (see the module docstring)."""

    __slots__ = ("owners", "codes")

    def __init__(self) -> None:
        self.owners: List[Union[bytes, int, FillRun]] = []
        self.codes = array("q")

    def __len__(self) -> int:
        return len(self.owners)

    def add_fill_run(
        self, pop_index: int, first_seq: int, seq_stride: int,
        first_page: int, pages: int,
    ) -> None:
        """Record ``pages`` fill pages of population ``pop_index``; extends
        the last entry when it is this fill's run and this one continues
        it (a block's pages of one fill are one arithmetic run)."""
        owners = self.owners
        if owners and owners[-1][:2] == ("pr", pop_index):
            _tag, _pop, seq0, stride0, page0, pages0 = owners[-1]
            if (stride0 == seq_stride and page0 + pages0 == first_page
                    and seq0 + pages0 * seq_stride == first_seq):
                owners[-1] = ("pr", pop_index, seq0, seq_stride, page0, pages0 + pages)
                return
        owners.append(("pr", pop_index, first_seq, seq_stride, first_page, pages))
        self.codes.append(0)

    def entries(self) -> Iterator[tuple]:
        """Each entry as a tuple: ``("r", key, frag_index, page, nbytes)``,
        ``("p", pop_index, pair, page)`` or the fill run's own.  For tests
        and debugging."""
        for owner, code in zip(self.owners, self.codes):
            if owner.__class__ is int:
                yield ("p", owner, code >> PAGE_BITS, code & PAGE_MASK)
            elif owner.__class__ is tuple:
                yield owner
            else:
                yield ("r", owner, code >> FRAG_SHIFT, code & PAGE_MASK,
                       code >> PAGE_BITS & BYTES_MASK)
