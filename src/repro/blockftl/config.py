"""Configuration for the block-SSD firmware personality.

The defaults are calibrated so the simulated block device lands near the
PM983 datasheet relationships the paper leans on (Sec. IV):

* 4 KiB random read ~ 85-90 us; sequential ~ 0.8x of random;
* buffered random write ~ 25 us; sequential ~ 0.6x of random;
* latency flat versus occupancy (mapping table always DRAM-resident);
* foreground GC practically untriggerable for 4 KiB I/O at <= 80% fill.

Mechanisms behind the sequential advantage (not magic factors): mapping
*segment cache* hits make sequential lookups cheap, while random lookups
pay a serialized metadata-load step — the same host-visible asymmetry the
paper attributes to block FTLs minimizing metadata work for sequential
streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import KIB, MIB


@dataclass(frozen=True)
class BlockSSDConfig:
    """Policy and cost knobs for :class:`~repro.blockftl.device.BlockSSD`."""

    #: Mapping granularity; 4 KiB is the de-facto industry unit.
    map_unit_bytes: int = 4 * KIB
    #: Logical sector size exposed to the host.
    sector_bytes: int = 512
    #: Fraction of raw capacity hidden as over-provisioning.
    overprovision: float = 0.07
    #: Controller cores available for command processing.
    controller_cores: int = 8
    #: Write-frontier width (concurrently open blocks).  Block FTLs keep
    #: this narrow to preserve spatial locality of logical blocks; the KV
    #: personality stripes wider — the Fig. 4 concurrency asymmetry.
    stream_width: int = 8
    #: Device DRAM write buffer.
    write_buffer_bytes: int = 1 * MIB
    #: Background-GC trigger: free blocks below this fraction of all blocks.
    gc_threshold_fraction: float = 0.08
    #: Free blocks reserved for GC's own allocations (user flush waits
    #: below this floor — the foreground-GC stall point).
    gc_reserve_blocks: int = 4
    #: Grown-defect budget before the device degrades to read-only;
    #: ``None`` scales with the geometry (see FtlCore).
    spare_block_limit: Optional[int] = None
    #: Runtime invariant checking after every GC cycle and drain (see
    #: :meth:`repro.ftl.core.FtlCore.check_invariants`).  O(live data)
    #: per check — a debug/test mode, off by default.
    invariants: bool = False

    # -- controller service times (microseconds) --------------------------
    #: Fixed command handling (NVMe decode, DMA setup).
    host_interface_us: float = 2.0
    #: Mapping lookup when the segment cache hits (sequential streams).
    map_hit_us: float = 3.0
    #: Extra serialized metadata-segment load on a cache miss (random).
    map_load_us: float = 15.0
    #: Mapping update on segment-cache hit / miss (writes).
    map_update_hit_us: float = 6.0
    map_update_miss_us: float = 16.0
    #: DRAM copy cost per map unit moved through the write buffer.
    buffer_copy_us: float = 5.0
    #: Serving a read straight from the write buffer.
    buffer_read_us: float = 3.0

    # -- mapping segment cache ---------------------------------------------
    #: Consecutive map units covered by one cached segment.
    segment_units: int = 1024
    #: Number of segments the controller keeps hot.
    segment_cache_entries: int = 64

    # -- flush policy -------------------------------------------------------
    #: Idle time after which a partial page is flushed anyway.
    flush_linger_us: float = 500.0

    def __post_init__(self) -> None:
        if self.map_unit_bytes % self.sector_bytes != 0:
            raise ConfigurationError(
                "map unit must be a multiple of the sector size"
            )
        if not 0.0 <= self.overprovision < 0.5:
            raise ConfigurationError(
                f"overprovision fraction {self.overprovision} outside [0, 0.5)"
            )
        if self.controller_cores < 1 or self.stream_width < 1:
            raise ConfigurationError("cores and stream width must be >= 1")
        if self.segment_units < 1 or self.segment_cache_entries < 1:
            raise ConfigurationError("segment cache parameters must be >= 1")
        if self.gc_reserve_blocks < 1:
            raise ConfigurationError("gc_reserve_blocks must be >= 1")
        if self.spare_block_limit is not None and self.spare_block_limit < 1:
            raise ConfigurationError("spare_block_limit must be >= 1")
        if not 0.0 < self.gc_threshold_fraction < 1.0:
            raise ConfigurationError("gc_threshold_fraction must be in (0, 1)")
