"""Configuration for the KV-SSD firmware personality.

The KV personality runs on the *same* flash array and controller hardware
as the block personality (the paper's PM983 firmware-swap methodology);
everything here is firmware policy and firmware cost.

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


@dataclass(frozen=True)
class KVSSDConfig:
    """Policy and cost knobs for :class:`~repro.kvftl.device.KVSSD`."""

    # -- SNIA KVS API limits (Sec. II) -------------------------------------
    min_key_bytes: int = 4
    max_key_bytes: int = 255
    max_value_bytes: int = 2 * MIB

    # -- blob layout ----------------------------------------------------------
    #: Per-KVP on-flash metadata (key size, value size, namespace, CRC).
    metadata_bytes: int = 32
    #: Minimum allocation unit; small blobs are padded up to this (the
    #: paper's ECC-sector hypothesis for the 1 KiB padding).
    min_alloc_bytes: int = 1 * KIB
    #: Page bytes reserved for recovery/erasure-coding metadata; the rest
    #: is usable blob area (32 KiB page - 7.5 KiB -> fits a 24 KiB value
    #: plus key and metadata, matching the paper's Fig. 5 hypothesis).
    page_reserved_bytes: int = 7680

    # -- capacity ----------------------------------------------------------
    overprovision: float = 0.07
    #: Hash-table load factor the global index sustains before collision
    #: resolution degrades.  Together with the index region size this sets
    #: the device's KVP limit: 5% of 3.84 TB at ~62 B per slot
    #: (24 B entry x 1.3 structure overhead / 0.5 load) ~= 3.1 billion
    #: pairs — the paper's observed maximum.
    index_load_factor: float = 0.5

    # -- controller ----------------------------------------------------------
    controller_cores: int = 8
    #: Parallel index-manager units (Sec. II footnote: multiple managers
    #: reduce contention on the global index).
    index_managers: int = 8
    #: Write-frontier width; the hash-ordered log stripes across all dies.
    stream_width: int = 16
    write_buffer_bytes: int = 1 * MIB
    gc_threshold_fraction: float = 0.08
    gc_reserve_blocks: int = 4
    #: Grown-defect budget before the device degrades to read-only;
    #: ``None`` scales with the geometry (see FtlCore).
    spare_block_limit: Optional[int] = None
    #: Runtime invariant checking after every GC cycle and drain (see
    #: :meth:`repro.ftl.core.FtlCore.check_invariants`).  O(live data)
    #: per check — a debug/test mode, off by default.
    invariants: bool = False

    # -- controller service times (microseconds) -----------------------------
    host_interface_us: float = 2.0
    #: Controller work per store (command parse, packing bookkeeping).
    store_controller_us: float = 30.0
    #: Index-manager work per store (hash, local-index insert, merge share).
    store_index_us: float = 20.0
    #: Controller work per retrieve (command parse, blob locate/unpack).
    retrieve_controller_us: float = 50.0
    #: Index-manager work per retrieve (hash, membership, index walk).
    retrieve_index_us: float = 30.0
    #: Delete / exist index work.
    delete_index_us: float = 18.0
    exist_index_us: float = 10.0
    #: DRAM copy per buffered KiB.
    buffer_copy_us_per_kib: float = 1.2
    #: Serving a retrieve from the not-yet-packed DRAM buffer.
    buffer_read_us: float = 3.0
    #: Extra controller work per additional data fragment of a split KVP
    #: (splitting + offset-pointer management; the Fig. 4/5 penalty).
    split_fragment_us: float = 250.0

    # -- global hash index ----------------------------------------------------
    #: DRAM available to cache the global index.  ``None`` scales the real
    #: drive's proportion (4 GiB DRAM on 3.84 TB) to this device.
    index_dram_bytes: Optional[int] = None
    #: Bytes per index entry (fixed-length key hash + location + flags).
    index_entry_bytes: int = 24
    #: Multi-level structure overhead over raw entries.
    index_structure_overhead: float = 1.3
    #: Inserts accumulated in a local index before merging to the global
    #: index (one merge batch).
    merge_batch: int = 64
    #: Fraction of blocks reserved as the on-flash index region.
    index_region_fraction: float = 0.05
    #: Bloom filter false-positive rate for negative lookups.
    bloom_fp_rate: float = 0.01

    # -- iterator management ---------------------------------------------------
    #: Keys accumulated per iterator bucket before a bucket page flush.
    iterator_flush_keys: int = 256

    # -- flush policy -----------------------------------------------------------
    flush_linger_us: float = 500.0

    @property
    def index_slot_bytes(self) -> float:
        """Index-region bytes one stored pair costs at the load factor."""
        return (
            self.index_entry_bytes
            * self.index_structure_overhead
            / self.index_load_factor
        )

    def __post_init__(self) -> None:
        if not 4 <= self.min_key_bytes <= self.max_key_bytes <= 255:
            raise ConfigurationError("key limits must satisfy 4 <= min <= max <= 255")
        if self.metadata_bytes < 0 or self.min_alloc_bytes < 1:
            raise ConfigurationError("blob layout sizes must be positive")
        if not 0.0 <= self.overprovision < 0.5:
            raise ConfigurationError("overprovision outside [0, 0.5)")
        if self.controller_cores < 1 or self.index_managers < 1:
            raise ConfigurationError("cores and index managers must be >= 1")
        if self.stream_width < 1:
            raise ConfigurationError("stream width must be >= 1")
        if self.merge_batch < 1:
            raise ConfigurationError("merge batch must be >= 1")
        if not 0.0 < self.index_region_fraction < 0.5:
            raise ConfigurationError("index region fraction must be in (0, 0.5)")
        if not 0.0 < self.index_load_factor <= 1.0:
            raise ConfigurationError("index load factor must be in (0, 1]")
        if not 0.0 <= self.bloom_fp_rate <= 1.0:
            raise ConfigurationError("bloom FP rate must be within [0, 1]")
        if self.gc_reserve_blocks < 1:
            raise ConfigurationError("gc_reserve_blocks must be >= 1")
        if self.spare_block_limit is not None and self.spare_block_limit < 1:
            raise ConfigurationError("spare_block_limit must be >= 1")
        if not 0.0 < self.gc_threshold_fraction < 1.0:
            raise ConfigurationError("gc_threshold_fraction must be in (0, 1)")
