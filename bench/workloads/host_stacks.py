"""``host_stacks``: the block personality under the paper's three host stacks.

Fig. 2's comparison systems, same seed and mix (uniform 50/50, 4 KiB,
queue depth 8) on the same geometry: ``direct`` is raw block I/O,
``lsm`` the RocksDB stand-in on the ext4 stand-in, ``hashkv`` the
Aerospike stand-in.  The KV firmware is bypassed entirely, so a change
to ``kvftl`` predicts no movement here.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cluster.run import aggregate_device_stats
from repro.core.experiment import (
    build_block_rig,
    build_hash_rig,
    build_lsm_rig,
    lab_geometry,
)
from repro.kvbench.runner import RunResult, execute_workload
from repro.kvbench.workload import Pattern, WorkloadSpec, generate_operations
from repro.kvftl.population import KeyScheme

from bench.catalog import FROZEN_OPS
from bench.workloads.common import (
    CheckedAdapter,
    Laps,
    Outcome,
    Timers,
    device_layer_metrics,
    drain,
    latency_metrics,
    merge_recorders,
)

VALUE_BYTES = 4096
QUEUE_DEPTH = 8
BLOCKS_PER_PLANE = 16
SCHEME = KeyScheme(prefix=b"fill", digits=12)

#: Fraction of the block device's capacity the direct section addresses.
DIRECT_FILL = 0.70
#: Keys primed under the two host KV stores.
STORE_KEYS = 20_000


@dataclass
class _Section:
    name: str
    rig: object
    adapter: CheckedAdapter
    #: What ``drain`` settles: the store when there is one, else the device.
    settle: object
    spec: WorkloadSpec
    events_before: int = 0
    cpu_before: float = 0.0
    commands_before: int = 0
    result: Optional[RunResult] = None
    wall_s: float = 0.0


@dataclass
class _State:
    sections: List[_Section] = field(default_factory=list)


class HostStacks:
    name = "host_stacks"
    #: Operations per section per repetition at the reference run length.
    base_ops = FROZEN_OPS["host_stacks"]

    def __init__(self, seed: int, factor: float) -> None:
        self.seed = seed
        self.n_ops = {
            name: max(200, round(count * factor))
            for name, count in self.base_ops.items()
        }
        #: Regime checks only hold with the frozen op counts or more.
        self.full_scale = factor >= 1.0
        #: Section filter; ``selfcheck`` narrows it to one stack.
        self.only: Optional[str] = None

    def _spec(self, section: str, population: int) -> WorkloadSpec:
        return WorkloadSpec(
            n_ops=self.n_ops[section],
            op="mixed",
            pattern=Pattern.UNIFORM,
            population=population,
            key_scheme=SCHEME,
            value_bytes=VALUE_BYTES,
            read_fraction=0.5,
            seed=self.seed,
        )

    # -- set-up, one builder per stack -----------------------------------

    def _direct(self, timers: Timers, tracer) -> _Section:
        rig = build_block_rig(lab_geometry(BLOCKS_PER_PLANE), tracer=tracer)
        adapter = rig.adapter(VALUE_BYTES)
        device = rig.device
        population = int(
            device.user_capacity_bytes * DIRECT_FILL // adapter.io_bytes
        )
        units = min(
            device.n_units,
            max(1, population * adapter.io_bytes // device.map_unit),
        )
        with timers.time("blockftl.prime_fill_host_s", count=units):
            device.prime_sequential_fill(units)
        return _Section(
            "direct", rig,
            CheckedAdapter(adapter, VALUE_BYTES, block_io=True),
            device, self._spec("direct", population),
        )

    def _lsm(self, timers: Timers, tracer) -> _Section:
        _restart_sstable_ids()
        rig = build_lsm_rig(lab_geometry(BLOCKS_PER_PLANE), tracer=tracer)
        entries = {SCHEME.key_for(i): VALUE_BYTES for i in range(STORE_KEYS)}
        with timers.time("hostkv.lsm.prime_fill_host_s"):
            rig.store.prime_fill(entries, level=3)
        return _Section(
            "lsm", rig, CheckedAdapter(rig.adapter, VALUE_BYTES),
            rig.store, self._spec("lsm", STORE_KEYS),
        )

    def _hashkv(self, timers: Timers, tracer) -> _Section:
        rig = build_hash_rig(lab_geometry(BLOCKS_PER_PLANE), tracer=tracer)
        with timers.time("hostkv.hashkv.fast_fill_host_s"):
            rig.store.fast_fill(STORE_KEYS, VALUE_BYTES, SCHEME)
        return _Section(
            "hashkv", rig, CheckedAdapter(rig.adapter, VALUE_BYTES),
            rig.store, self._spec("hashkv", STORE_KEYS),
        )

    def setup(self, timers: Timers, sink=None) -> _State:
        builders: Dict[str, Callable] = {
            "direct": self._direct, "lsm": self._lsm, "hashkv": self._hashkv,
        }
        state = _State()
        for name, build in builders.items():
            if self.only is not None and name != self.only:
                continue
            section = build(timers, sink.tracer(name) if sink else None)
            rig = section.rig
            section.events_before = rig.env.processed_events
            section.cpu_before = rig.cpu.total_busy_us
            section.commands_before = rig.driver.commands_submitted
            state.sections.append(section)
        return state

    # -- timed phase -------------------------------------------------------

    def run(self, state: _State, laps: Laps) -> None:
        for index, section in enumerate(state.sections):
            if index:
                laps.mark()
            started = time.perf_counter()
            env = section.rig.env
            section.result = execute_workload(
                env, section.adapter,
                laps.every(generate_operations(section.spec)),
                queue_depth=QUEUE_DEPTH, name=f"{self.name}.{section.name}",
            )
            drain(env, section.settle)
            section.wall_s = time.perf_counter() - started

    # -- reduction ---------------------------------------------------------

    def finish(self, state: _State) -> Outcome:
        sim: Dict[str, float] = {}
        host: Dict[str, float] = {}
        errors: List[str] = []
        ops = attempted = failed = events = 0
        elapsed_us = cpu_us = 0.0
        commands = commands_failed = 0
        user_bytes = 0
        all_stats = []
        page_bytes = 0
        die_util = []
        for section in state.sections:
            rig, result, adapter = section.rig, section.result, section.adapter
            assert result is not None
            name = section.name
            ops += result.completed_ops
            attempted += section.spec.n_ops
            failed += result.failed_ops + adapter.mismatches
            events += rig.env.processed_events - section.events_before
            elapsed_us += result.elapsed_us
            section_cpu = rig.cpu.total_busy_us - section.cpu_before
            cpu_us += section_cpu
            commands += rig.driver.commands_submitted - section.commands_before
            commands_failed += rig.driver.commands_failed
            user_bytes += adapter.user_write_bytes
            stats = rig.device.stats
            page_bytes = rig.device.array.geometry.page_bytes
            all_stats.append(stats)
            die_util.append(rig.device.array.die_utilization())
            layer = "blockftl.direct" if name == "direct" else f"hostkv.{name}"
            host[f"{layer}.host_ops_per_s"] = result.completed_ops / section.wall_s
            sim[f"{layer}.sim_p99_us"] = result.latency.summary().p99
            sim[f"{layer}.sim_host_cpu_us_per_op"] = (
                section_cpu / result.completed_ops
            )
            sim[f"{layer}.sim_write_p50_us"] = result.latency.summary("update").p50
            if adapter.mismatches:
                errors.append(
                    f"{name}: {adapter.mismatches} of {adapter.reads_checked} "
                    "reads returned a size other than the one last stored"
                )
            if name == "lsm":
                store = rig.store
                if self.full_scale and (
                    store.flushes_run < 3 or store.compactions_run < 1
                ):
                    errors.append(
                        f"lsm: {store.flushes_run} flushes and "
                        f"{store.compactions_run} compactions inside the phase, "
                        "the section needs at least 3 and 1"
                    )
                sim.update({
                    "hostkv.lsm.flushes": float(store.flushes_run),
                    "hostkv.lsm.compactions": float(store.compactions_run),
                    "hostkv.lsm.stall_us_per_op": (
                        store.stall_time_us / result.completed_ops
                    ),
                    "hostkv.lsm.app_bytes_written": float(store.app_bytes_written),
                    "hostkv.lsm.space_amp": store.space_amplification(),
                    "hostkv.fs.journal_writes_per_op": (
                        rig.fs.journal_writes / result.completed_ops
                    ),
                    "hostkv.fs.metadata_ops_per_op": (
                        rig.fs.metadata_ops / result.completed_ops
                    ),
                })
            elif name == "hashkv":
                store = rig.store
                sim.update({
                    "hostkv.hashkv.defrag_runs": float(store.defrag_runs),
                    "hostkv.hashkv.space_amp": store.space_amplification(),
                    "hostkv.hashkv.defrag_moved_bytes_per_user_byte": (
                        store.defrag_moved_bytes / adapter.user_write_bytes
                    ),
                })
        pooled = merge_recorders([s.result.latency for s in state.sections])
        sim.update(latency_metrics(pooled))
        sim["sim_kops"] = ops / (elapsed_us / 1000.0)
        sim.update(device_layer_metrics(
            aggregate_device_stats(all_stats), ops, user_bytes, page_bytes
        ))
        sim.update({
            "sim.sim_elapsed_s": elapsed_us / 1e6,
            "flash.die_utilization": sum(die_util) / len(die_util),
            "nvme.commands_per_op": commands / ops,
            "nvme.commands_failed": float(commands_failed),
            "api.sim_host_cpu_us_per_op": cpu_us / ops,
        })
        if commands_failed:
            errors.append(f"{commands_failed} NVMe commands failed")
        return Outcome(
            ops=ops, attempted=attempted, failed=failed,
            sim=sim, host=host, errors=errors, events=events,
        )


def _restart_sstable_ids() -> None:
    """Neutralise a state leak this benchmark found in the program.

    ``repro.hostkv.lsm.sstable`` numbers SSTables from one process-wide
    counter, the number becomes the file name, and the name salts the
    Bloom false-positive draw, so an LSM rig behaves differently depending
    on how many tables earlier rigs in the process created.  Without this
    reset the repetitions of this workload disagree in ``sim_*``.  The
    guard keeps the benchmark working once the counter moves into the
    store, at which point this function does nothing.
    """
    from repro.hostkv.lsm import sstable

    if hasattr(sstable, "_sst_ids"):
        sstable._sst_ids = itertools.count()
