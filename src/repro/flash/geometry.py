"""Physical geometry of the simulated NAND flash array.

The geometry mirrors the hierarchy of a real enterprise drive such as the
Samsung PM983 the paper measures: *channels* connect the controller to
*dies*; each die holds *planes*; planes hold *blocks* (the erase unit); and
blocks hold *pages* (the program unit).

The paper's experiments run on a 3.84 TB device.  Simulating that capacity
page-by-page is neither necessary nor useful — every reported effect is a
ratio at matched relative occupancy — so the default geometry is a scaled
device (~8 GiB) with the same page size (32 KiB, the paper's inferred page
size for the PM983) and the same parallelism structure.  Experiments that
need other scales construct their own geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AddressError, ConfigurationError
from repro.units import GIB, KIB


@dataclass(frozen=True)
class Geometry:
    """Immutable description of the flash array's shape.

    Attributes
    ----------
    channels:
        Independent buses between controller and flash packages.
    dies_per_channel:
        Dies sharing each channel; dies operate concurrently but share the
        channel for data transfer.
    planes_per_die:
        Planes per die; modeled as extra blocks behind the same die-busy
        resource (multi-plane commands are folded into the die timing).
    blocks_per_plane:
        Erase units per plane.
    pages_per_block:
        Program units per block.
    page_bytes:
        Size of one flash page (32 KiB on the paper's PM983 hypothesis).
    """

    channels: int = 8
    dies_per_channel: int = 2
    planes_per_die: int = 2
    blocks_per_plane: int = 64
    pages_per_block: int = 128
    page_bytes: int = 32 * KIB

    # Derived quantities, precomputed once at construction: these sit on
    # per-page hot paths (bounds checks, die/channel lookup), where the
    # former @property arithmetic dominated profiles.  Excluded from
    # repr/compare so Geometry equality and hashing still mean "same
    # configured shape".
    total_dies: int = field(init=False, repr=False, compare=False, default=0)
    blocks_per_die: int = field(init=False, repr=False, compare=False, default=0)
    total_blocks: int = field(init=False, repr=False, compare=False, default=0)
    total_pages: int = field(init=False, repr=False, compare=False, default=0)
    block_bytes: int = field(init=False, repr=False, compare=False, default=0)
    capacity_bytes: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        for field_name in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            value = getattr(self, field_name)
            if not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"geometry field {field_name} must be a positive int, "
                    f"got {value!r}"
                )
        write = object.__setattr__  # frozen dataclass
        write(self, "total_dies", self.channels * self.dies_per_channel)
        write(self, "blocks_per_die", self.planes_per_die * self.blocks_per_plane)
        write(self, "total_blocks", self.total_dies * self.blocks_per_die)
        write(self, "total_pages", self.total_blocks * self.pages_per_block)
        write(self, "block_bytes", self.pages_per_block * self.page_bytes)
        write(self, "capacity_bytes", self.total_pages * self.page_bytes)

    # -- flat block indexing ----------------------------------------------

    def die_of_block(self, block_index: int) -> int:
        """Die (0..total_dies-1) that owns flat block ``block_index``.

        Blocks are numbered so that consecutive indices rotate across dies
        first (``block % total_dies``), which makes naive sequential block
        allocation stripe across all dies — the layout real FTLs use to
        maximize program parallelism.
        """
        self.check_block(block_index)
        return block_index % self.total_dies

    def check_block(self, block_index: int) -> None:
        """Raise :class:`AddressError` if ``block_index`` is out of range."""
        if not 0 <= block_index < self.total_blocks:
            raise AddressError(
                f"block index {block_index} out of range [0, {self.total_blocks})"
            )

    def check_page(self, block_index: int, page_index: int) -> None:
        """Raise :class:`AddressError` for an invalid (block, page) pair."""
        self.check_block(block_index)
        if not 0 <= page_index < self.pages_per_block:
            raise AddressError(
                f"page index {page_index} out of range [0, {self.pages_per_block})"
            )

    def describe(self) -> str:
        """One-line human-readable summary of the array shape."""
        return (
            f"{self.channels}ch x {self.dies_per_channel}die x "
            f"{self.planes_per_die}pl x {self.blocks_per_plane}blk x "
            f"{self.pages_per_block}pg x {self.page_bytes}B "
            f"= {self.capacity_bytes / GIB:.2f} GiB raw"
        )


def tiny_geometry() -> Geometry:
    """A very small array for fast unit tests (a few MiB)."""
    return Geometry(
        channels=2,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=8,
        pages_per_block=16,
        page_bytes=4 * KIB,
    )
