"""Analytical model of KV-SSD performance.

The paper's conclusion lists "an analytical model of KV-SSD performance
that can help researchers generate more representative workloads" as
future work; this module delivers it, built from the same mechanisms the
simulator implements.  Closed forms are provided for:

* store / retrieve latency at QD1 as a function of pair size and the
  number of pairs already stored (index occupancy);
* saturated throughput as the minimum over the pipeline's resources
  (controller cores, index managers, the submission path and flash
  program bandwidth);
* space amplification and the device's maximum KVP count.

The test suite validates each prediction against the discrete-event
simulation; the ablation bench uses the model to extrapolate to the
paper's full 3.84 TB scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.flash import timing
from repro.flash.geometry import Geometry
from repro.ftl.core import CONTROLLER_CORES, HOST_INTERFACE_US, OVERPROVISION
from repro.kvftl.blob import layout_blob, usable_page_bytes
from repro.kvftl.config import (
    BUFFER_COPY_US_PER_KIB,
    INDEX_ENTRY_BYTES,
    INDEX_MANAGERS,
    INDEX_REGION_FRACTION,
    INDEX_SLOT_BYTES,
    INDEX_STRUCTURE_OVERHEAD,
    MERGE_BATCH,
    RETRIEVE_CONTROLLER_US,
    RETRIEVE_INDEX_US,
    SPLIT_FRAGMENT_US,
    STORE_CONTROLLER_US,
    STORE_INDEX_US,
    KVSSDConfig,
)
from repro.nvme.command import commands_for_key
from repro.nvme.driver import CPU_ASYNC_US, SUBMIT_US
from repro.units import KIB, ceil_div


@dataclass(frozen=True)
class ClosedFormBreakdown:
    """One operation's predicted QD1 latency, decomposed by mechanism
    (microseconds); measured spans aggregate in
    :class:`repro.metrics.attribution.LatencyBreakdown` instead."""

    host_us: float
    controller_us: float
    index_us: float
    index_flash_us: float
    data_flash_us: float
    buffer_us: float

    @property
    def total_us(self) -> float:
        return (
            self.host_us
            + self.controller_us
            + self.index_us
            + self.index_flash_us
            + self.data_flash_us
            + self.buffer_us
        )


class KVSSDModel:
    """Closed-form performance model mirroring the KV-FTL mechanisms."""

    def __init__(
        self,
        geometry: Geometry,
        config: Optional[KVSSDConfig] = None,
    ) -> None:
        self.geometry = geometry
        self.config = config or KVSSDConfig()
        self.usable_page = usable_page_bytes(geometry.page_bytes, self.config)
        region = max(1, int(geometry.total_blocks * INDEX_REGION_FRACTION))
        data_blocks = geometry.total_blocks - region
        self.user_capacity_bytes = int(
            data_blocks * geometry.block_bytes * (1.0 - OVERPROVISION)
        )
        dram = self.config.index_dram_bytes
        if dram is None:
            dram = max(256 * KIB, int(geometry.capacity_bytes * 0.00104))
        self.index_dram_bytes = dram

    # ------------------------------------------------------------------
    # index occupancy
    # ------------------------------------------------------------------

    def index_bytes(self, kvps: int) -> int:
        """Persisted index size for ``kvps`` stored pairs."""
        return int(kvps * INDEX_ENTRY_BYTES * INDEX_STRUCTURE_OVERHEAD)

    def index_pages(self, kvps: int) -> int:
        """Flash pages the index occupies."""
        return max(
            1, ceil_div(max(1, self.index_bytes(kvps)), self.geometry.page_bytes)
        )

    def resident_fraction(self, kvps: int) -> float:
        """Fraction of the index cacheable in device DRAM."""
        size = self.index_bytes(kvps)
        if size <= self.index_dram_bytes:
            return 1.0
        return self.index_dram_bytes / size

    def lookup_flash_reads(self, kvps: int) -> float:
        """Expected index page reads per lookup."""
        miss = 1.0 - self.resident_fraction(kvps)
        levels = 1 if self.index_pages(kvps) <= 512 else 2
        return miss * levels

    def merge_flash_ops_per_insert(self, kvps: int) -> float:
        """Expected (read + write) index page ops per insert.

        A merge batch of B entries over P pages touches
        ``P * (1 - (1 - 1/P)**B)`` distinct pages; the non-resident
        fraction is read and rewritten through the serialized merge
        engine.
        """
        batch = MERGE_BATCH
        pages = self.index_pages(kvps)
        touched = pages * (1.0 - (1.0 - 1.0 / pages) ** batch)
        non_resident = touched * (1.0 - self.resident_fraction(kvps))
        return 2.0 * non_resident / batch

    # ------------------------------------------------------------------
    # flash primitives
    # ------------------------------------------------------------------

    def _page_read_us(self, nbytes: int) -> float:
        return timing.READ_US + timing.transfer_us(
            min(nbytes, self.geometry.page_bytes)
        )

    def _page_write_us(self) -> float:
        return timing.PROGRAM_US + timing.transfer_us(self.geometry.page_bytes)

    # ------------------------------------------------------------------
    # latency (QD1)
    # ------------------------------------------------------------------

    def store_breakdown(
        self, key_bytes: int, value_bytes: int, kvps: int = 0
    ) -> ClosedFormBreakdown:
        """QD1 store latency decomposition at ``kvps`` prior occupancy."""
        layout = layout_blob(
            key_bytes, value_bytes, self.geometry.page_bytes, self.config
        )
        ncommands = commands_for_key(key_bytes)
        host = ncommands * (CPU_ASYNC_US + SUBMIT_US)
        controller = (
            HOST_INTERFACE_US * ncommands
            + STORE_CONTROLLER_US
            + SPLIT_FRAGMENT_US * (layout.data_fragments - 1)
        )
        index = STORE_INDEX_US
        # The serialized merge engine throttles sustained inserts; at QD1
        # its amortized per-insert cost lands in the latency directly.
        merge_ops = self.merge_flash_ops_per_insert(kvps)
        index_flash = merge_ops / 2.0 * (
            self._page_read_us(self.geometry.page_bytes) + self._page_write_us()
        )
        buffer_copy = BUFFER_COPY_US_PER_KIB * layout.footprint_bytes / KIB
        return ClosedFormBreakdown(
            host_us=host,
            controller_us=controller,
            index_us=index,
            index_flash_us=index_flash,
            data_flash_us=0.0,  # admission completes before programming
            buffer_us=buffer_copy,
        )

    def retrieve_breakdown(
        self, key_bytes: int, value_bytes: int, kvps: int = 0
    ) -> ClosedFormBreakdown:
        """QD1 retrieve latency decomposition."""
        layout = layout_blob(
            key_bytes, value_bytes, self.geometry.page_bytes, self.config
        )
        ncommands = commands_for_key(key_bytes)
        host = ncommands * (CPU_ASYNC_US + SUBMIT_US)
        controller = HOST_INTERFACE_US * ncommands + RETRIEVE_CONTROLLER_US
        index_flash = self.lookup_flash_reads(kvps) * self._page_read_us(
            self.geometry.page_bytes
        )
        # Fragments are read in parallel across dies: the slowest fragment
        # (the largest transfer) bounds the data phase.
        data = max(self._page_read_us(frag) for frag in layout.fragments)
        return ClosedFormBreakdown(
            host_us=host,
            controller_us=controller,
            index_us=RETRIEVE_INDEX_US,
            index_flash_us=index_flash,
            data_flash_us=data,
            buffer_us=0.0,
        )

    def store_latency_us(
        self, key_bytes: int, value_bytes: int, kvps: int = 0
    ) -> float:
        """QD1 store latency."""
        return self.store_breakdown(key_bytes, value_bytes, kvps).total_us

    def retrieve_latency_us(
        self, key_bytes: int, value_bytes: int, kvps: int = 0
    ) -> float:
        """QD1 retrieve latency."""
        return self.retrieve_breakdown(key_bytes, value_bytes, kvps).total_us

    # ------------------------------------------------------------------
    # throughput (saturated)
    # ------------------------------------------------------------------

    def store_throughput_kops(self, key_bytes: int, value_bytes: int) -> float:
        """Saturated store throughput (thousand ops/s) on an empty index:
        min over stages (a DRAM-resident index keeps the merge engine off
        flash, so it never binds)."""
        layout = layout_blob(
            key_bytes, value_bytes, self.geometry.page_bytes, self.config
        )
        ncommands = commands_for_key(key_bytes)
        controller_us = (
            HOST_INTERFACE_US * ncommands
            + STORE_CONTROLLER_US
            + SPLIT_FRAGMENT_US * (layout.data_fragments - 1)
            + BUFFER_COPY_US_PER_KIB * layout.footprint_bytes / KIB
        )
        stages = [
            CONTROLLER_CORES / controller_us,
            INDEX_MANAGERS / STORE_INDEX_US,
            1.0 / (ncommands * SUBMIT_US),
        ]
        # Flash: pages per second across all dies, times blobs per page.
        pages_per_us = self.geometry.total_dies / self._page_write_us()
        if layout.is_split:
            stages.append(pages_per_us / len(layout.fragments))
        else:
            per_page = self.usable_page // layout.footprint_bytes
            stages.append(pages_per_us * per_page)
        return min(stages) * 1000.0

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------

    def space_amplification(self, key_bytes: int, value_bytes: int) -> float:
        """Device bytes over application bytes for one pair size."""
        layout = layout_blob(
            key_bytes, value_bytes, self.geometry.page_bytes, self.config
        )
        return layout.footprint_bytes / (key_bytes + value_bytes)

    def max_kvps(self) -> int:
        """Maximum storable pairs on this geometry (index-slot bound)."""
        region = max(1, int(self.geometry.total_blocks * INDEX_REGION_FRACTION))
        region_bytes = region * self.geometry.block_bytes
        return int(region_bytes / INDEX_SLOT_BYTES)

    @staticmethod
    def max_kvps_at_capacity(capacity_bytes: float) -> float:
        """Extrapolate the KVP limit to an arbitrary device size.

        With the paper's 3.84 TB this reproduces its ~3.1 billion pair
        observation: 5% of raw capacity at ~62 B per index slot.
        """
        region_bytes = capacity_bytes * INDEX_REGION_FRACTION
        return region_bytes / INDEX_SLOT_BYTES
