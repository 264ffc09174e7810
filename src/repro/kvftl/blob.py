"""Blob layout: how a KV pair becomes bytes on flash.

A stored pair is a *blob* of ``metadata + key + value`` packed into flash
pages in a byte-aligned, log-like manner (Sec. II).  Two policies shape
everything the paper measures about packing:

* **Minimum allocation** — blobs smaller than ``min_alloc_bytes`` (1 KiB,
  the ECC-sector hypothesis) are padded up to it.  Larger blobs are packed
  tightly ("close to 1" space amplification for 1-4 KiB values, Fig. 7).
* **Splitting** — a blob larger than a page's usable area is split into
  fragments, each programmed separately with offset-pointer management
  (the Fig. 4 large-value penalty and Fig. 5 bandwidth zig-zag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError, InvalidKeyError, InvalidValueError
from repro.kvftl.config import KVSSDConfig
from repro.units import ceil_div


def validate_key(key: bytes, config: KVSSDConfig) -> None:
    """Enforce the SNIA KVS key constraints (4..255 bytes)."""
    if not isinstance(key, (bytes, bytearray)):
        raise InvalidKeyError(f"key must be bytes, got {type(key).__name__}")
    if not config.min_key_bytes <= len(key) <= config.max_key_bytes:
        raise InvalidKeyError(
            f"key length {len(key)} outside "
            f"[{config.min_key_bytes}, {config.max_key_bytes}]"
        )


def validate_value_size(value_bytes: int, config: KVSSDConfig) -> None:
    """Enforce the SNIA KVS value constraints (0..2 MiB)."""
    if value_bytes < 0 or value_bytes > config.max_value_bytes:
        raise InvalidValueError(
            f"value length {value_bytes} outside [0, {config.max_value_bytes}]"
        )


def usable_page_bytes(page_bytes: int, config: KVSSDConfig) -> int:
    """Blob-packable bytes per flash page (page minus recovery reserve)."""
    usable = page_bytes - config.page_reserved_bytes
    if usable < config.min_alloc_bytes:
        raise ConfigurationError(
            f"page of {page_bytes}B leaves {usable}B usable, below the "
            f"minimum allocation of {config.min_alloc_bytes}B"
        )
    return usable


@dataclass(frozen=True)
class BlobLayout:
    """Computed on-flash layout of one KV pair."""

    key_bytes: int
    value_bytes: int
    #: Raw blob size: metadata + key + value.
    raw_bytes: int
    #: Device footprint after padding/splitting policy.
    footprint_bytes: int
    #: Per-fragment device sizes (sums to footprint_bytes).
    fragments: List[int]
    #: Fragments carrying blob data (the rest are offset-record pages).
    data_fragments: int = 1

    @property
    def is_split(self) -> bool:
        """Whether the blob spans more than one flash page."""
        return len(self.fragments) > 1

    @property
    def offset_pages(self) -> int:
        """Offset-record pages a split blob maintains."""
        return len(self.fragments) - self.data_fragments

    @property
    def padding_bytes(self) -> int:
        """Bytes added by the minimum-allocation/splitting policy."""
        return self.footprint_bytes - self.raw_bytes


def layout_blob(
    key_bytes: int, value_bytes: int, page_bytes: int, config: KVSSDConfig
) -> BlobLayout:
    """Compute the layout for a (key size, value size) pair.

    Unsplit blobs co-pack byte-aligned (padded to the minimum allocation).
    A blob larger than the usable page area splits into page-granular
    data fragments, and additionally maintains one offset-record page per
    extra fragment (the "splitting, packing, and offset pointer
    management" the paper blames for the large-value penalty, Sec. IV and
    its reference [11]).  Split blobs therefore consume whole pages —
    byte-aligned co-packing applies only below the split threshold, which
    is what makes Fig. 5's bandwidth dip hard just past 24 KiB.
    """
    raw = config.metadata_bytes + key_bytes + value_bytes
    usable = usable_page_bytes(page_bytes, config)
    if raw <= usable:
        footprint = max(raw, config.min_alloc_bytes)
        return BlobLayout(key_bytes, value_bytes, raw, footprint, [footprint], 1)
    data_fragments = ceil_div(raw, usable)
    offset_pages = data_fragments - 1
    fragments = [usable] * (data_fragments + offset_pages)
    footprint = sum(fragments)
    return BlobLayout(
        key_bytes, value_bytes, raw, footprint, fragments, data_fragments
    )


def blobs_per_page(
    key_bytes: int, value_bytes: int, page_bytes: int, config: KVSSDConfig
) -> int:
    """How many identical unsplit blobs co-pack into one page.

    Raises :class:`ConfigurationError` for blobs that must split (they do
    not co-pack at page granularity).
    """
    layout = layout_blob(key_bytes, value_bytes, page_bytes, config)
    if layout.is_split:
        raise ConfigurationError(
            f"blob of {layout.raw_bytes}B splits across pages; "
            "blobs_per_page is undefined"
        )
    return usable_page_bytes(page_bytes, config) // layout.footprint_bytes


def space_amplification(
    key_bytes: int, value_bytes: int, page_bytes: int, config: KVSSDConfig
) -> float:
    """Analytic device-bytes / application-bytes ratio for one pair size.

    This is the closed-form counterpart of the measured Fig. 7 curve; a
    ``fig7`` claim holds the device's measured accounting to it.
    """
    app = key_bytes + value_bytes
    if app == 0:
        raise InvalidValueError("cannot compute amplification of an empty pair")
    layout = layout_blob(key_bytes, value_bytes, page_bytes, config)
    return layout.footprint_bytes / app
