"""Configuration for the block-SSD firmware personality.

The constants are calibrated so the simulated block device lands near the
PM983 datasheet relationships the paper leans on (Sec. IV), pinned by
``tests/test_blockssd_device.py::test_calibration_anchors_at_qd1``:

* 4 KiB random read ~ 85-90 us; sequential ~ 0.8x of random;
* buffered random write ~ 25 us; sequential ~ 0.6x of random;
* latency flat versus occupancy (mapping table always DRAM-resident);
* foreground GC practically untriggerable for 4 KiB I/O at <= 80% fill.

Mechanisms behind the sequential advantage (not magic factors): mapping
*segment cache* hits make sequential lookups cheap, while random lookups
pay a serialized metadata-load step — the same host-visible asymmetry the
paper attributes to block FTLs minimizing metadata work for sequential
streams.  The values both personalities share live in
:mod:`repro.ftl.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.units import KIB

#: Process-label prefix of the device's resources and workers.
DEVICE_NAME = "block-ssd"

#: Mapping granularity; 4 KiB is the de-facto industry unit.
MAP_UNIT_BYTES = 4 * KIB
#: Write-frontier width (concurrently open blocks).  Block FTLs keep this
#: narrow to preserve spatial locality of logical blocks; the KV
#: personality stripes wider — the Fig. 4 concurrency asymmetry.
STREAM_WIDTH = 8

# -- controller service times (microseconds) --------------------------------
#: Mapping lookup when the segment cache hits (sequential streams).
MAP_HIT_US = 3.0
#: Extra serialized metadata-segment load on a cache miss (random).
MAP_LOAD_US = 15.0
#: Mapping update on segment-cache hit / miss (writes).
MAP_UPDATE_HIT_US = 6.0
MAP_UPDATE_MISS_US = 16.0
#: DRAM copy cost per map unit moved through the write buffer.
BUFFER_COPY_US = 5.0

# -- mapping segment cache ----------------------------------------------------
#: Consecutive map units covered by one cached segment.
SEGMENT_UNITS = 1024
#: Number of segments the controller keeps hot.
SEGMENT_CACHE_ENTRIES = 64


@dataclass(frozen=True)
class BlockSSDConfig:
    """The knobs of :class:`~repro.blockftl.device.BlockSSD` runs vary."""

    #: Grown-defect budget before the device degrades to read-only;
    #: ``None`` scales with the geometry (see FtlCore).
    spare_block_limit: Optional[int] = None
    #: Runtime invariant checking after every GC cycle and drain (see
    #: :meth:`repro.ftl.core.FtlCore.check_invariants`).  O(live data)
    #: per check — a debug/test mode, off by default.
    invariants: bool = False

    def __post_init__(self) -> None:
        if self.spare_block_limit is not None and self.spare_block_limit < 1:
            raise ConfigurationError("spare_block_limit must be >= 1")
