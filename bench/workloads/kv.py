"""``kv_mixed`` and ``kv_gc_writes``: the KV-SSD personality, closed loop.

Same device layer used two ways.  ``kv_mixed`` is the paper's Fig. 2/4
cell (uniform 50/50 read/update over a 55 % full 64-blocks-per-plane
device, no GC); its operations arrive as a ``#kvtrace v1`` file written
and parsed in set-up, so the trace path's cost lands in ``setup_s``.

``kv_gc_writes`` is the Fig. 6/7 regime (updates only, GC running for
the whole phase); its operations stream lazily from
``generate_operations`` inside the timed phase, the way the figures do.
Reaching that regime inside a few seconds of host time takes some care:
uniform updates over a device filled to 80 % only reach the GC threshold
after ~29 k updates, and once there the collector finds victims that are
almost fully valid and thrashes (write amplification of 80-150, a few
hundred ops/s of host time).  So the device is filled the way an aged
drive looks instead: a cold ballast that is never touched, a 16-block hot
set taking all the updates, free space 8 blocks above the GC threshold,
a 4-block write frontier (the default 16-wide frontier claims 16 of this
geometry's 256 blocks at a time and pushes the pool from the threshold
straight to its reserve), and 6000 untimed warm-up updates in set-up that
leave the hot blocks about half invalid.  GC then starts with the timed
phase and runs at a write amplification near 3.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.core.experiment import KVRig, build_kv_rig, lab_geometry
from repro.ftl.core import DeviceStats
from repro.kvbench.runner import RunResult, execute_workload
from repro.kvbench.traces import TraceWorkload, export_spec, read_trace
from repro.kvbench.workload import (
    Operation,
    Pattern,
    WorkloadSpec,
    generate_operations,
)
from repro.kvftl.blob import blobs_per_page
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.units import MIB

from bench.catalog import FROZEN_OPS
from bench.workloads.common import (
    CheckedAdapter,
    Laps,
    Outcome,
    Timers,
    device_layer_metrics,
    drain,
    latency_metrics,
    scratch_dir,
)

VALUE_BYTES = 4096
#: 16-byte keys, the paper's macro key size.
SCHEME = KeyScheme(prefix=b"fill", digits=12)


@dataclass
class _State:
    rig: KVRig
    adapter: CheckedAdapter
    operations: Iterable[Operation]
    events_before: int
    stats_before: DeviceStats
    cpu_before: float
    commands_before: int
    result: Optional[RunResult] = None
    drain_host_s: float = 0.0


class _KvWorkload:
    """One closed-loop phase against a prefilled KV rig."""

    name = ""
    blocks_per_plane = 0
    config: Optional[KVSSDConfig] = None
    queue_depth = 0
    op_kind = ""
    #: Operations per repetition at the reference run length.
    base_ops = 0
    via_trace = False
    #: GC runs the phase must complete at full scale.
    min_gc_runs = 0

    def __init__(self, seed: int, factor: float) -> None:
        self.seed = seed
        self.n_ops = max(200, round(self.base_ops * factor))
        #: Regime checks only hold with the frozen op counts or more.
        self.full_scale = factor >= 1.0

    def _spec(self, population: int, n_ops: int, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            n_ops=n_ops,
            op=self.op_kind,
            pattern=Pattern.UNIFORM,
            population=population,
            key_scheme=SCHEME,
            value_bytes=VALUE_BYTES,
            read_fraction=0.5,
            seed=seed,
        )

    def _prefill(self, rig: KVRig, timers: Timers) -> int:
        """Fill the device untimed; returns the addressed population."""
        raise NotImplementedError

    def setup(self, timers: Timers, sink=None) -> _State:
        rig = build_kv_rig(
            lab_geometry(self.blocks_per_plane), config=self.config,
            tracer=sink.tracer(self.name) if sink else None,
        )
        population = self._prefill(rig, timers)
        spec = self._spec(population, self.n_ops, self.seed)
        if self.via_trace:
            operations: Iterable[Operation] = self._through_trace(spec, timers)
        else:
            with timers.time("kvbench.opgen_host_s", count=self.n_ops):
                # Cost of the generator alone, on a throwaway pass; the
                # timed phase consumes a fresh lazy stream.
                for _ in generate_operations(spec):
                    pass
            operations = generate_operations(spec)
        if sink:
            sink.mark(self.name, rig.env.now)
        return _State(
            rig=rig,
            adapter=CheckedAdapter(rig.adapter, VALUE_BYTES),
            operations=operations,
            events_before=rig.env.processed_events,
            stats_before=rig.device.stats.snapshot(),
            cpu_before=rig.cpu.total_busy_us,
            commands_before=rig.driver.commands_submitted,
        )

    def _through_trace(self, spec: WorkloadSpec, timers: Timers) -> TraceWorkload:
        directory = scratch_dir("kvtrace-")
        path = str(directory / "ops.kvtrace")
        try:
            with timers.time("kvbench.trace_write_host_s", count=self.n_ops):
                export_spec(spec, path)
            with timers.time("kvbench.trace_parse_host_s", count=self.n_ops):
                records = read_trace(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
            directory.rmdir()
        return TraceWorkload(records, key_scheme=SCHEME)

    def run(self, state: _State, laps: Laps) -> None:
        rig = state.rig
        state.result = execute_workload(
            rig.env, state.adapter, laps.every(state.operations),
            queue_depth=self.queue_depth, name=self.name,
        )
        started = time.perf_counter()
        drain(rig.env, rig.device)
        state.drain_host_s = time.perf_counter() - started

    def finish(self, state: _State) -> Outcome:
        rig, result, adapter = state.rig, state.result, state.adapter
        assert result is not None
        ops = result.completed_ops
        # The runner's own delta closes before the drain; the phase's media
        # traffic is only complete after it.
        stats = rig.device.stats.delta(state.stats_before)
        geometry = rig.device.array.geometry
        events = rig.env.processed_events - state.events_before
        sim: Dict[str, float] = {"sim_kops": result.throughput_kops()}
        sim.update(latency_metrics(result.latency))
        sim.update(device_layer_metrics(
            stats, ops, adapter.user_write_bytes, geometry.page_bytes
        ))
        commands = rig.driver.commands_submitted - state.commands_before
        sim.update({
            "sim.sim_elapsed_s": result.elapsed_us / 1e6,
            "flash.die_utilization": rig.device.array.die_utilization(),
            "kvftl.index_resident_fraction": rig.device.index.resident_fraction(),
            "nvme.commands_per_op": commands / ops,
            "nvme.commands_failed": float(rig.driver.commands_failed),
            "api.sim_host_cpu_us_per_op": (
                (rig.cpu.total_busy_us - state.cpu_before) / ops
            ),
            "e2e.sim_space_amp": rig.device.stats.amplification(),
            "kvftl.sim_write_p50_us": result.latency.summary("update").p50,
        })
        errors = []
        if adapter.mismatches:
            errors.append(
                f"{adapter.mismatches} of {adapter.reads_checked} reads "
                "returned a size other than the one last stored"
            )
        if rig.driver.commands_failed:
            errors.append(f"{rig.driver.commands_failed} NVMe commands failed")
        if self.full_scale and stats.gc_runs < self.min_gc_runs:
            errors.append(
                f"{stats.gc_runs} GC runs inside the phase, the workload "
                f"needs at least {self.min_gc_runs}"
            )
        return Outcome(
            ops=ops,
            attempted=self.n_ops,
            failed=result.failed_ops + adapter.mismatches,
            sim=sim,
            host={"ftl.drain_host_s": state.drain_host_s},
            errors=errors,
            events=events,
        )


def _pairs_per_block(rig: KVRig) -> int:
    geometry = rig.device.array.geometry
    per_page = blobs_per_page(
        SCHEME.key_bytes, VALUE_BYTES, geometry.page_bytes, rig.device.config
    )
    return per_page * geometry.pages_per_block


class KvMixed(_KvWorkload):
    name = "kv_mixed"
    blocks_per_plane = 64
    config = KVSSDConfig(index_dram_bytes=64 * MIB)
    queue_depth = 8
    op_kind = "mixed"
    base_ops = FROZEN_OPS["kv_mixed"]["ops"]
    via_trace = True
    #: Share of the data pages the prefill occupies (~822 k pairs).
    fill_fraction = 0.55

    def _prefill(self, rig: KVRig, timers: Timers) -> int:
        device = rig.device
        population = int(
            device.free_block_count() * _pairs_per_block(rig) * self.fill_fraction
        )
        with timers.time("kvftl.fast_fill_host_s", count=population):
            device.fast_fill(population, VALUE_BYTES, SCHEME)
        return population


class KvGcWrites(_KvWorkload):
    name = "kv_gc_writes"
    blocks_per_plane = 8
    config = KVSSDConfig(stream_width=4)
    queue_depth = 16
    op_kind = "update"
    base_ops = FROZEN_OPS["kv_gc_writes"]["ops"]
    via_trace = False
    #: Blocks of pairs that take every update.
    min_gc_runs = 50
    hot_blocks = 16
    #: Free blocks left above the GC threshold after the fill.
    slack_blocks = 8
    #: Untimed updates that age the hot set before the phase.
    warmup_ops = FROZEN_OPS["kv_gc_writes"]["warmup_ops"]
    cold_scheme = KeyScheme(prefix=b"cold", digits=12)

    def _prefill(self, rig: KVRig, timers: Timers) -> int:
        device = rig.device
        per_block = _pairs_per_block(rig)
        hot = self.hot_blocks * per_block
        cold_blocks = (
            device.free_block_count() - self.hot_blocks
            - device.core.gc_threshold_blocks - self.slack_blocks
        )
        cold = cold_blocks * per_block
        with timers.time("kvftl.fast_fill_host_s", count=hot + cold):
            device.fast_fill(hot, VALUE_BYTES, SCHEME)
            device.fast_fill(cold, VALUE_BYTES, self.cold_scheme)
        with timers.time("kvbench.warmup_host_s"):
            warmup = self._spec(hot, self.warmup_ops, self.seed + 1_000_003)
            execute_workload(
                rig.env, rig.adapter, generate_operations(warmup),
                queue_depth=self.queue_depth, name=f"{self.name}.warmup",
            )
            drain(rig.env, device)
        return hot
