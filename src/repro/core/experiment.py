"""Experiment rigs: ready-to-measure system stacks.

A *rig* bundles one isolated simulation environment with a full stack
(device, driver, API, store, adapter) so an experiment can build the
paper's four systems-under-test with one call each:

* :func:`build_kv_rig` — KV-SSD behind the SNIA KVS API (KDD);
* :func:`build_block_rig` — block-SSD behind direct I/O;
* :func:`build_lsm_rig` — RocksDB stand-in on ext4 on block-SSD;
* :func:`build_hash_rig` — Aerospike stand-in on raw block-SSD.

All rigs share one flash timing and default to the same geometry — the
paper's same-hardware methodology — and expose the CPU accountant and device
counters the analysis reads.  :func:`build_rig` builds any of them by
system name, and all four answer one method surface (``adapter_for``,
``prime``, ``drain``, ``close``), so a cell is written once and takes
``system``.

A rig is a context manager: a cell that returns plain data builds it
``with build_rig(...) as rig:``, and leaving the block ends the stack's
background workers and empties its queues, so the finished simulation is
freed by reference counting at once rather than by a full collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, TypeVar

from repro.api.kvs import KVStoreAPI
from repro.errors import ConfigurationError, SimulationError
from repro.faults.model import FaultConfig, FaultInjector
from repro.flash.geometry import Geometry
from repro.kvbench.runner import (
    BlockAdapter,
    HashKVAdapter,
    KeyedAdapter,
    KVSSDAdapter,
    LSMAdapter,
)
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.kvftl.population import KeyScheme
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment
from repro.trace.tracer import Tracer
from repro.units import KIB

if TYPE_CHECKING:
    from repro.api.block import BlockDeviceAPI
    from repro.blockftl.config import BlockSSDConfig
    from repro.blockftl.device import BlockSSD
    from repro.hostkv.fs.ext4 import SimFileSystem
    from repro.hostkv.hashkv.store import HashKVStore
    from repro.hostkv.lsm.store import LSMConfig, LSMStore


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


_R = TypeVar("_R", bound="_Rig")


@dataclass
class _Rig:
    """What every rig carries, and the protocol every cell drives.

    ``adapter_for(io_bytes)`` is the kvbench adapter for operations of
    that size, ``prime(pairs, value_bytes, scheme)`` the stack's untimed
    bulk fill, ``drain()`` settles background work between phases and
    ``close()`` ends the simulation once its results are taken.
    """

    env: Environment
    cpu: CpuAccountant
    driver: KernelDeviceDriver
    device: Any
    api: Any

    def drain(self) -> None:
        """Settle background work (flushes, packing) between phases."""
        self._settle(self.device)

    def close(self) -> None:
        """End the background workers and empty the environment's queues.

        The workers stay parked in the stack's own signals and queues and
        their frames hold the stack, so without this a finished rig is
        cyclic garbage.  Pops nothing; a second call does nothing; a
        closed rig refuses to prime, drain or run.
        """
        if self.env.closed:
            return
        self._end_workers()
        self.env.close()

    def __enter__(self: _R) -> _R:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _end_workers(self) -> None:
        self.device.close()

    def _refuse_if_closed(self) -> None:
        if self.env.closed:
            raise SimulationError("the rig is closed")

    def _settle(self, target: Any) -> None:
        self._refuse_if_closed()
        process = self.env.process(target.drain())
        self.env.run_until_complete(process, limit=self.env.now + 600e6)


class _OneAdapter:
    """Keyed stacks serve every size through their one ``adapter``."""

    adapter: Any

    def adapter_for(self, io_bytes: int) -> Any:
        return self.adapter


@dataclass
class KVRig(_Rig, _OneAdapter):
    """KV-SSD stack under test."""

    device: KVSSD
    api: KVStoreAPI
    adapter: KeyedAdapter

    def prime(self, pairs: int, value_bytes: int, scheme: KeyScheme) -> None:
        self._refuse_if_closed()
        self.device.fast_fill(pairs, value_bytes, scheme)

    def pair_capacity(
        self,
        key_bytes: int,
        value_bytes: int,
        reserve_blocks: int = 0,
        fraction: float = 1.0,
    ) -> int:
        """Pairs of this size that co-pack into the free data pages.

        Free blocks (less ``reserve_blocks`` of allocation-stream and GC
        margin; none when the margin takes them all) x pages per block x
        blobs per page.  ``fraction`` scales the *page* count before
        packing, so a part-fill is sized in whole pages (blob packing
        wastes a page fraction; byte-based sizing would overshoot).  0 for
        a blob that must split across pages: split blobs neither co-pack
        nor bulk-prime.
        """
        device = self.device
        if device.layout_for(key_bytes, value_bytes).is_split:
            return 0
        geometry = device.array.geometry
        pages = (
            max(0, device.free_block_count() - reserve_blocks)
            * geometry.pages_per_block
        )
        return int(pages * fraction) * blobs_per_page(
            key_bytes, value_bytes, geometry.page_bytes, device.config
        )


@dataclass
class BlockRig(_Rig):
    """Direct-I/O block-SSD stack under test."""

    device: BlockSSD
    api: BlockDeviceAPI

    def adapter(self, io_bytes: int) -> BlockAdapter:
        """Adapter issuing fixed-size I/Os of ``io_bytes``."""
        return BlockAdapter(self.api, io_bytes)

    adapter_for = adapter

    def prime(
        self, pairs: int, value_bytes: int, scheme: Optional[KeyScheme] = None
    ) -> None:
        """Map the address range ``pairs`` slots of ``value_bytes`` span
        (slots are addressed by key index; ``scheme`` is not consulted)."""
        self._refuse_if_closed()
        device = self.device
        units = pairs * self.adapter(value_bytes).io_bytes // device.map_unit
        device.prime_sequential_fill(min(max(units, 1), device.n_units))

    def pair_capacity(
        self,
        key_bytes: int,
        value_bytes: int,
        reserve_blocks: int = 0,
        fraction: float = 1.0,
    ) -> int:
        """I/O slots of ``value_bytes`` in ``fraction`` of the logical
        range (keys, and the KV firmware's block margin, have no block
        counterpart)."""
        adapter = self.adapter(value_bytes)
        return int(
            self.device.user_capacity_bytes * fraction // adapter.io_bytes
        )


@dataclass
class LSMRig(_Rig, _OneAdapter):
    """RocksDB-on-ext4-on-block stack under test."""

    device: BlockSSD
    api: BlockDeviceAPI
    fs: SimFileSystem
    store: LSMStore
    adapter: KeyedAdapter

    def prime(self, pairs: int, value_bytes: int, scheme: KeyScheme) -> None:
        """Bulk-load ``pairs`` straight into level 3 (a settled tree)."""
        self._refuse_if_closed()
        self.store.prime_fill(
            {scheme.key_for(i): value_bytes for i in range(pairs)}, level=3
        )

    def drain(self) -> None:
        self._settle(self.store)

    def _end_workers(self) -> None:
        self.store.close()
        self.device.close()


@dataclass
class HashRig(_Rig, _OneAdapter):
    """Aerospike-on-raw-block stack under test."""

    device: BlockSSD
    api: BlockDeviceAPI
    store: HashKVStore
    adapter: KeyedAdapter

    def prime(self, pairs: int, value_bytes: int, scheme: KeyScheme) -> None:
        self._refuse_if_closed()
        self.store.fast_fill(pairs, value_bytes, scheme)

    def drain(self) -> None:
        self._settle(self.store)

    def _end_workers(self) -> None:
        self.store.close()
        self.device.close()


def build_kv_rig(
    geometry: Optional[Geometry] = None,
    config: Optional[KVSSDConfig] = None,
    sync: bool = False,
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
    cpu = CpuAccountant()
    faults = FaultInjector(fault_config) if fault_config is not None else None
    device = KVSSD(env, geometry or lab_geometry(), config=config,
                   tracer=tracer, faults=faults)
    driver = KernelDeviceDriver(env, cpu, tracer=device.tracer)
    api = KVStoreAPI(env, device, driver, sync=sync)
    return KVRig(env, cpu, driver, device, api, KVSSDAdapter(api))


def build_block_rig(
    geometry: Optional[Geometry] = None,
    config: Optional[BlockSSDConfig] = None,
    tracer: Optional[Tracer] = None,
    fault_config: Optional[FaultConfig] = None,
) -> BlockRig:
    """Fresh environment with a block SSD behind direct I/O.

    ``fault_config`` builds the device its own seeded fault injector
    (``None`` = perfect flash).
    """
    from repro.api.block import BlockDeviceAPI
    from repro.blockftl.device import BlockSSD

    env = Environment()
    cpu = CpuAccountant()
    faults = FaultInjector(fault_config) if fault_config is not None else None
    device = BlockSSD(env, geometry or lab_geometry(), config=config,
                      tracer=tracer, faults=faults)
    driver = KernelDeviceDriver(env, cpu, tracer=device.tracer)
    api = BlockDeviceAPI(env, device, driver)
    return BlockRig(env, cpu, driver, device, api)


def build_lsm_rig(
    geometry: Optional[Geometry] = None,
    lsm_config: Optional[LSMConfig] = None,
    tracer: Optional[Tracer] = None,
) -> LSMRig:
    """Fresh environment with the RocksDB stand-in on ext4 on block."""
    from repro.hostkv.fs.ext4 import SimFileSystem
    from repro.hostkv.lsm.store import LSMStore

    base = build_block_rig(geometry, tracer=tracer)
    fs = SimFileSystem(base.env, base.api)
    store = LSMStore(base.env, fs, lsm_config)
    return LSMRig(**vars(base), fs=fs, store=store, adapter=LSMAdapter(store))


def build_hash_rig(
    geometry: Optional[Geometry] = None,
    tracer: Optional[Tracer] = None,
) -> HashRig:
    """Fresh environment with the Aerospike stand-in on raw block."""
    from repro.hostkv.hashkv.store import HashKVStore

    base = build_block_rig(geometry, tracer=tracer)
    store = HashKVStore(base.env, base.api)
    return HashRig(**vars(base), store=store, adapter=HashKVAdapter(store))


#: ``build_rig`` system name -> builder: the paper's four stacks.
_BUILDERS: Dict[str, Callable[..., Any]] = {
    "kvssd": build_kv_rig,
    "block": build_block_rig,
    "rocksdb": build_lsm_rig,
    "aerospike": build_hash_rig,
}

#: The two direct-access personalities under the short names specs,
#: result tables and run labels use for them.
DIRECT_SYSTEMS = {"kv": "kvssd", "block": "block"}


def build_rig(system: str, geometry: Optional[Geometry] = None, **opts: Any) -> Any:
    """Fresh rig of ``system``; ``opts`` go to its ``build_*_rig``."""
    builder = _BUILDERS.get(system)
    if builder is None:
        raise ConfigurationError(
            f"unknown system {system!r}; expected one of {tuple(_BUILDERS)}"
        )
    return builder(geometry, **opts)
