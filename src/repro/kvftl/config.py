"""Configuration for the KV-SSD firmware personality.

The KV personality runs on the *same* flash array and controller hardware
as the block personality (the paper's PM983 firmware-swap methodology);
everything here is firmware policy and firmware cost.  The values the
experiments vary are :class:`KVSSDConfig` fields; the rest are constants
of the one measured drive (the values both personalities share live in
:mod:`repro.ftl.core`).

Calibration anchors (paper, Sec. I/IV):

* random 4 KiB retrieve ~1.7x and insert ~2.5x the block device's
  direct-I/O latency at QD1 (key handling + index work);
* retrieve latency up to 2x and insert latency up to 16.4x worse at high
  index occupancy (global index overflows device DRAM, Fig. 3);
* byte-aligned log packing: blobs below ``min_alloc_bytes`` are padded to
  it (ECC-sector hypothesis -> up to ~20x space amplification, Fig. 7);
  values beyond the usable page area split into fragments with offset
  management overhead (Fig. 4 "bane", Fig. 5 bandwidth zig-zag).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import KIB, MIB

#: Process-label prefix of the device's resources and workers.
DEVICE_NAME = "kv-ssd"

# -- SNIA KVS API limits (Sec. II) ------------------------------------------
MIN_KEY_BYTES = 4
MAX_KEY_BYTES = 255
MAX_VALUE_BYTES = 2 * MIB

#: Per-KVP on-flash metadata (key size, value size, namespace, CRC).
METADATA_BYTES = 32

#: Parallel index-manager units (Sec. II footnote: multiple managers
#: reduce contention on the global index).
INDEX_MANAGERS = 8

# -- controller service times (microseconds) --------------------------------
#: Controller work per store (command parse, packing bookkeeping).
STORE_CONTROLLER_US = 30.0
#: Index-manager work per store (hash, local-index insert, merge share).
STORE_INDEX_US = 20.0
#: Controller work per retrieve (command parse, blob locate/unpack).
RETRIEVE_CONTROLLER_US = 50.0
#: Index-manager work per retrieve (hash, membership, index walk).
RETRIEVE_INDEX_US = 30.0
#: Delete / exist index work.
DELETE_INDEX_US = 18.0
EXIST_INDEX_US = 10.0
#: DRAM copy per buffered KiB.
BUFFER_COPY_US_PER_KIB = 1.2
#: Extra controller work per additional data fragment of a split KVP
#: (splitting + offset-pointer management; the Fig. 4/5 penalty).
SPLIT_FRAGMENT_US = 250.0

# -- global hash index --------------------------------------------------------
#: Bytes per index entry (fixed-length key hash + location + flags).
INDEX_ENTRY_BYTES = 24
#: Multi-level structure overhead over raw entries.
INDEX_STRUCTURE_OVERHEAD = 1.3
#: Hash-table load factor the global index sustains before collision
#: resolution degrades.  Together with the index region size this sets
#: the device's KVP limit: 5% of 3.84 TB at ~62 B per slot
#: (24 B entry x 1.3 structure overhead / 0.5 load) ~= 3.1 billion
#: pairs — the paper's observed maximum.
INDEX_LOAD_FACTOR = 0.5
#: Index-region bytes one stored pair costs at the load factor.
INDEX_SLOT_BYTES = INDEX_ENTRY_BYTES * INDEX_STRUCTURE_OVERHEAD / INDEX_LOAD_FACTOR
#: Inserts accumulated in a local index before merging to the global
#: index (one merge batch).
MERGE_BATCH = 64
#: Fraction of blocks reserved as the on-flash index region.
INDEX_REGION_FRACTION = 0.05
#: Bloom filter false-positive rate for negative lookups.
BLOOM_FP_RATE = 0.01

#: Keys accumulated per iterator bucket before a bucket page flush.
ITERATOR_FLUSH_KEYS = 256


@dataclass(frozen=True)
class KVSSDConfig:
    """The knobs of :class:`~repro.kvftl.device.KVSSD` experiments vary."""

    #: Minimum allocation unit; small blobs are padded up to this (the
    #: paper's ECC-sector hypothesis for the 1 KiB padding).
    min_alloc_bytes: int = 1 * KIB
    #: Page bytes reserved for recovery/erasure-coding metadata; the rest
    #: is usable blob area (32 KiB page - 7.5 KiB -> fits a 24 KiB value
    #: plus key and metadata, matching the paper's Fig. 5 hypothesis).
    page_reserved_bytes: int = 7680
    #: Write-frontier width; the hash-ordered log stripes across all dies.
    stream_width: int = 16
    #: Grown-defect budget before the device degrades to read-only;
    #: ``None`` scales with the geometry (see FtlCore).
    spare_block_limit: Optional[int] = None
    #: Runtime invariant checking after every GC cycle and drain (see
    #: :meth:`repro.ftl.core.FtlCore.check_invariants`).  O(live data)
    #: per check — a debug/test mode, off by default.
    invariants: bool = False
    #: DRAM available to cache the global index.  ``None`` scales the real
    #: drive's proportion (4 GiB DRAM on 3.84 TB) to this device.
    index_dram_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.min_alloc_bytes < 1:
            raise ConfigurationError("blob layout sizes must be positive")
        if self.stream_width < 1:
            raise ConfigurationError("stream width must be >= 1")
        if self.spare_block_limit is not None and self.spare_block_limit < 1:
            raise ConfigurationError("spare_block_limit must be >= 1")
