"""Runtime invariant checker: clean runs stay silent, corruption trips.

Two halves:

* *parity under invariants* — the same GC-heavy update workload the
  tier-1 parity tests use, run on both personalities with
  ``invariants=True``: every GC cycle and the final drain re-verify
  mapping/valid-byte/pool consistency, and the workload completes.
* *corruption detection* — each invariant class (duplicate ident,
  valid-byte drift, pool leak, unreset FREE block) is violated on
  purpose and must raise :class:`~repro.errors.InvariantViolation`.
"""

from __future__ import annotations

import pytest

from repro.api.block import BlockDeviceAPI
from repro.api.kvs import KVStoreAPI
from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.errors import InvariantViolation
from repro.flash.geometry import Geometry
from repro.flash.nand import FlashArray
from repro.flash.timing import FlashTiming
from repro.ftl.core import DeviceStats, FtlCore
from repro.kvbench.runner import BlockAdapter, KVSSDAdapter, execute_workload
from repro.kvbench.workload import WorkloadSpec, generate_operations
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.device import KVSSD
from repro.kvftl.population import KeyScheme
from repro.metrics.cpu import CpuAccountant
from repro.nvme.driver import KernelDeviceDriver
from repro.sim.engine import Environment
from repro.units import KIB

SCHEME = KeyScheme(prefix=b"key-", digits=12)


def small_geometry() -> Geometry:
    return Geometry(
        channels=2,
        dies_per_channel=2,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=32,
        page_bytes=32 * KIB,
    )


def run_update_workload(env, adapter, population: int, n_ops: int):
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="update",
        population=population,
        key_scheme=SCHEME,
        value_bytes=4 * KIB,
        seed=11,
    )
    return execute_workload(
        env, adapter, generate_operations(spec),
        queue_depth=16, name="inv", stop_after_us=600e6,
    )


# -- parity under invariants --------------------------------------------------


def test_kv_personality_invariants_hold_through_gc():
    env = Environment()
    kv = KVSSD(
        env, small_geometry(),
        config=KVSSDConfig(page_reserved_bytes=0, invariants=True),
    )
    cpu = CpuAccountant(env, 16)
    api = KVStoreAPI(env, kv, KernelDeviceDriver(env, cpu), sync=False)
    population = kv.fast_fill(
        int(kv.core.user_capacity_bytes * 0.80 // 4144), 4 * KIB, SCHEME
    )
    run = run_update_workload(
        env, KVSSDAdapter(api), population.count, n_ops=2500
    )
    env.run_until_complete(env.process(kv.drain()))
    assert run.completed_ops == 2500
    # The point of the test: GC actually cycled, re-checking invariants
    # after every collection, and the final state still verifies.
    assert kv.stats.gc_runs > 10
    kv.core.check_invariants("final")


def test_block_personality_invariants_hold_through_gc():
    env = Environment()
    blk = BlockSSD(
        env, small_geometry(), config=BlockSSDConfig(invariants=True)
    )
    cpu = CpuAccountant(env, 16)
    api = BlockDeviceAPI(env, blk, KernelDeviceDriver(env, cpu), sync=False)
    primed = int(blk.n_units * 0.80)
    blk.prime_sequential_fill(primed)
    run = run_update_workload(
        env, BlockAdapter(api, 4 * KIB), primed, n_ops=2500
    )
    env.run_until_complete(env.process(blk.drain()))
    assert run.completed_ops == 2500
    assert blk.stats.gc_runs > 5
    blk.core.check_invariants("final")


def test_invariants_default_off_and_checker_noops():
    env = Environment()
    blk = BlockSSD(env, small_geometry())
    assert blk.core.invariants is False
    # Sculpted/primed state without mappings would fail the checker, but
    # with invariants off the call must be a no-op.
    block = blk.pool.pop()
    blk.array.open_block(block)
    blk.array.prime_program(block, 1024)
    blk.core.check_invariants("noop")


# -- corruption detection -----------------------------------------------------


class _StubPersonality:
    """Minimal hook implementation around a hand-built mapping list."""

    def __init__(self) -> None:
        self.view = []

    def live_bytes(self) -> int:
        return sum(entry[3] for entry in self.view)

    def peek_flush(self):
        return None

    def mapping_view(self):
        return list(self.view)


def make_core(invariants: bool = True):
    env = Environment()
    geometry = small_geometry()
    array = FlashArray(env, geometry, FlashTiming(), DeviceStats())
    personality = _StubPersonality()
    core = FtlCore(
        env,
        array,
        personality,
        stream_width=2,
        write_buffer_bytes=64 * KIB,
        flush_linger_us=100.0,
        gc_threshold_fraction=0.08,
        gc_reserve_blocks=2,
        page_payload_bytes=geometry.page_bytes,
        user_capacity_bytes=geometry.capacity_bytes // 2,
        invariants=invariants,
    )
    return env, array, personality, core


def program_one_page(array: FlashArray, core: FtlCore, nbytes: int) -> int:
    block = core.pool.pop()
    array.open_block(block)
    array.prime_program(block, nbytes)
    return block


def test_detects_clean_stub_state():
    _env, array, personality, core = make_core()
    block = program_one_page(array, core, 4096)
    personality.view = [("a", block, 0, 4096)]
    core.check_invariants("clean")  # must not raise


def test_detects_double_mapped_ident():
    _env, array, personality, core = make_core()
    block = program_one_page(array, core, 8192)
    personality.view = [("a", block, 0, 4096), ("a", block, 0, 4096)]
    with pytest.raises(InvariantViolation, match="mapped twice"):
        core.check_invariants("dup")


def test_detects_valid_byte_drift():
    _env, array, personality, core = make_core()
    block = program_one_page(array, core, 4096)
    # Mapping claims more live bytes on the block than the array accounts.
    personality.view = [("a", block, 0, 4096), ("b", block, 0, 1024)]
    with pytest.raises(InvariantViolation, match="valid_bytes"):
        core.check_invariants("drift")


def test_detects_mapping_into_free_or_unwritten_pages():
    _env, array, personality, core = make_core()
    block = program_one_page(array, core, 4096)
    free_block = next(
        index for index, info in enumerate(array.blocks)
        if info.state.name == "FREE"
    )
    personality.view = [("a", free_block, 0, 4096)]
    with pytest.raises(InvariantViolation, match="FREE block"):
        core.check_invariants("free")
    personality.view = [("a", block, 5, 4096)]
    with pytest.raises(InvariantViolation, match="unwritten page"):
        core.check_invariants("unwritten")


def test_detects_free_pool_leak():
    _env, _array, _personality, core = make_core()
    # A block leaves the pool without the array opening it: FREE count
    # and pool count now disagree.
    core.pool.pop()
    with pytest.raises(InvariantViolation, match="free pool"):
        core.check_invariants("leak")


def test_corrupted_real_device_mapping_is_caught():
    """End-to-end: corrupt a real BlockSSD page map; the checker trips."""
    env = Environment()
    blk = BlockSSD(
        env, small_geometry(), config=BlockSSDConfig(invariants=True)
    )
    blk.prime_sequential_fill(64)
    blk.core.check_invariants("pre")
    # Unbind a mapped unit behind the array's back: its valid bytes are
    # still accounted on flash, so the mapping and the array now disagree.
    blk.pagemap.unbind(0)
    with pytest.raises(InvariantViolation, match="valid_bytes"):
        blk.core.check_invariants("post")
