"""Experiment rigs: ready-to-measure system stacks.

A *rig* bundles one isolated simulation environment with a full stack
(device, driver, API, store, adapter) so an experiment can build the
paper's four systems-under-test with one call each:

* :func:`build_kv_rig` — KV-SSD behind the SNIA KVS API (KDD);
* :func:`build_block_rig` — block-SSD behind direct I/O;
* :func:`build_lsm_rig` — RocksDB stand-in on ext4 on block-SSD;
* :func:`build_hash_rig` — Aerospike stand-in on raw block-SSD.

All rigs default to the same flash geometry and timing — the paper's
same-hardware methodology — and expose the CPU accountant and device
counters the analysis reads.  :func:`drain_rig` settles any of them
between measured phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.api.block import BlockDeviceAPI
from repro.api.kvs import KVStoreAPI
from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.faults.model import FaultConfig, FaultInjector
from repro.flash.geometry import Geometry
from repro.flash.timing import FlashTiming
from repro.hostkv.fs.ext4 import SimFileSystem
from repro.hostkv.hashkv.store import HashKVConfig, HashKVStore
from repro.hostkv.lsm.store import LSMConfig, LSMStore
from repro.kvbench.runner import (
    BlockAdapter,
    HashKVAdapter,
    KVSSDAdapter,
    LSMAdapter,
)
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import DriverCosts, KernelDeviceDriver
from repro.sim.engine import Environment
from repro.trace.tracer import Tracer
from repro.units import KIB


def lab_geometry(blocks_per_plane: int = 32) -> Geometry:
    """Default experiment geometry: PM983-shaped, laptop-sized (~1-4 GiB).

    16 dies across 8 channels with 32 KiB pages — the same parallelism
    structure as the measured drive, scaled in block count only.
    """
    return Geometry(
        channels=8,
        dies_per_channel=2,
        planes_per_die=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=128,
        page_bytes=32 * KIB,
    )


@dataclass
class KVRig:
    """KV-SSD stack under test."""

    env: Environment
    cpu: CpuAccountant
    driver: KernelDeviceDriver
    device: KVSSD
    api: KVStoreAPI
    adapter: KVSSDAdapter


@dataclass
class BlockRig:
    """Direct-I/O block-SSD stack under test."""

    env: Environment
    cpu: CpuAccountant
    driver: KernelDeviceDriver
    device: BlockSSD
    api: BlockDeviceAPI

    def adapter(self, io_bytes: int) -> BlockAdapter:
        """Adapter issuing fixed-size I/Os of ``io_bytes``."""
        return BlockAdapter(self.api, io_bytes)


@dataclass
class LSMRig:
    """RocksDB-on-ext4-on-block stack under test."""

    env: Environment
    cpu: CpuAccountant
    driver: KernelDeviceDriver
    device: BlockSSD
    api: BlockDeviceAPI
    fs: SimFileSystem
    store: LSMStore
    adapter: LSMAdapter


@dataclass
class HashRig:
    """Aerospike-on-raw-block stack under test."""

    env: Environment
    cpu: CpuAccountant
    driver: KernelDeviceDriver
    device: BlockSSD
    api: BlockDeviceAPI
    store: HashKVStore
    adapter: HashKVAdapter


def build_kv_rig(
    geometry: Optional[Geometry] = None,
    config: Optional[KVSSDConfig] = None,
    timing: Optional[FlashTiming] = None,
    driver_costs: Optional[DriverCosts] = None,
    sync: bool = False,
    host_cores: int = 16,
    tracer: Optional[Tracer] = None,
    fault_config: Optional[FaultConfig] = None,
) -> KVRig:
    """Fresh environment with a KV-SSD behind the KVS API.

    An unbound ``tracer`` is bound to the rig's fresh environment and
    threaded through the device, core, flash array, and driver.  A
    ``fault_config`` builds the device its own seeded
    :class:`~repro.faults.model.FaultInjector` (``None`` = perfect flash).
    """
    env = Environment()
    cpu = CpuAccountant(env, host_cores)
    faults = FaultInjector(fault_config) if fault_config is not None else None
    device = KVSSD(env, geometry or lab_geometry(), timing, config,
                   tracer=tracer, faults=faults)
    driver = KernelDeviceDriver(env, cpu, driver_costs, tracer=device.tracer)
    api = KVStoreAPI(env, device, driver, sync=sync)
    return KVRig(env, cpu, driver, device, api, KVSSDAdapter(api))


def build_block_rig(
    geometry: Optional[Geometry] = None,
    config: Optional[BlockSSDConfig] = None,
    timing: Optional[FlashTiming] = None,
    driver_costs: Optional[DriverCosts] = None,
    sync: bool = False,
    host_cores: int = 16,
    tracer: Optional[Tracer] = None,
    fault_config: Optional[FaultConfig] = None,
) -> BlockRig:
    """Fresh environment with a block SSD behind direct I/O.

    ``fault_config`` builds the device its own seeded fault injector
    (``None`` = perfect flash).
    """
    env = Environment()
    cpu = CpuAccountant(env, host_cores)
    faults = FaultInjector(fault_config) if fault_config is not None else None
    device = BlockSSD(env, geometry or lab_geometry(), timing, config,
                      tracer=tracer, faults=faults)
    driver = KernelDeviceDriver(env, cpu, driver_costs, tracer=device.tracer)
    api = BlockDeviceAPI(env, device, driver, sync=sync)
    return BlockRig(env, cpu, driver, device, api)


def build_lsm_rig(
    geometry: Optional[Geometry] = None,
    lsm_config: Optional[LSMConfig] = None,
    block_config: Optional[BlockSSDConfig] = None,
    timing: Optional[FlashTiming] = None,
    host_cores: int = 16,
    tracer: Optional[Tracer] = None,
) -> LSMRig:
    """Fresh environment with the RocksDB stand-in on ext4 on block."""
    env = Environment()
    cpu = CpuAccountant(env, host_cores)
    device = BlockSSD(env, geometry or lab_geometry(), timing, block_config,
                      tracer=tracer)
    driver = KernelDeviceDriver(env, cpu, tracer=device.tracer)
    api = BlockDeviceAPI(env, device, driver)
    fs = SimFileSystem(env, api)
    store = LSMStore(env, fs, lsm_config)
    return LSMRig(env, cpu, driver, device, api, fs, store, LSMAdapter(store))


def build_hash_rig(
    geometry: Optional[Geometry] = None,
    hash_config: Optional[HashKVConfig] = None,
    block_config: Optional[BlockSSDConfig] = None,
    timing: Optional[FlashTiming] = None,
    host_cores: int = 16,
    tracer: Optional[Tracer] = None,
    fault_config: Optional[FaultConfig] = None,
) -> HashRig:
    """Fresh environment with the Aerospike stand-in on raw block.

    ``fault_config`` builds the device its own seeded fault injector
    (``None`` = perfect flash).
    """
    env = Environment()
    cpu = CpuAccountant(env, host_cores)
    faults = FaultInjector(fault_config) if fault_config is not None else None
    device = BlockSSD(env, geometry or lab_geometry(), timing, block_config,
                      tracer=tracer, faults=faults)
    driver = KernelDeviceDriver(env, cpu, tracer=device.tracer)
    api = BlockDeviceAPI(env, device, driver)
    store = HashKVStore(env, api, hash_config)
    return HashRig(env, cpu, driver, device, api, store, HashKVAdapter(store))


def drain_rig(rig: Union[KVRig, BlockRig, LSMRig, HashRig]) -> None:
    """Settle a rig's background work (flushes, packing) between phases."""
    target = rig.store if isinstance(rig, (LSMRig, HashRig)) else rig.device
    process = rig.env.process(target.drain())
    rig.env.run_until_complete(process, limit=rig.env.now + 600e6)
