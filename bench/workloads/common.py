"""What the five workloads share: the outcome record, the reference-model
adapter, and reducers from the program's public counters to metrics."""

from __future__ import annotations

import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Generator, Iterable, Iterator, List, Optional

from repro.kvbench.workload import Operation, OpType
from repro.metrics.latency import LatencyRecorder, percentile

from bench import BENCH_DIR

#: Everything the benchmark writes (span files, kvtrace inputs, the
#: cluster's result cache) lands here; the directory is git-ignored.
OUT_DIR = BENCH_DIR / "out"

#: A p99.9 is reported only with at least ten samples beyond it.
P999_MIN_SAMPLES = 10_000


@dataclass
class Outcome:
    """One timed phase, reduced after the clock stopped.

    ``sim`` holds everything that must repeat exactly for a seed (the
    ``sim_*`` end-to-end metrics, the per-layer simulated values and the
    counts); ``host`` holds per-layer host-time readings taken with
    ``perf_counter`` around public calls inside the phase.
    """

    #: Client operations completed: the numerator of ``host_ops_per_s``.
    ops: int
    attempted: int
    #: Failed + shed + not-found + reference-model mismatches.
    failed: int
    sim: Dict[str, float] = field(default_factory=dict)
    host: Dict[str, float] = field(default_factory=dict)
    #: Correctness violations; any entry fails the run.
    errors: List[str] = field(default_factory=list)
    #: Engine events processed in the phase, where the workload can reach
    #: its ``Environment``; the traced pass counts them otherwise.
    events: Optional[int] = None


class Timers:
    """Named ``perf_counter`` timers around public set-up calls.

    ``count`` is how many items the timed call handled, so the harness can
    derive a rate (pairs filled per second, records parsed per second).
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    @contextmanager
    def time(self, name: str, count: int = 0) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = (
                self.seconds.get(name, 0.0) + time.perf_counter() - started
            )
            self.counts[name] = self.counts.get(name, 0) + count


#: Closed-loop operations between two laps: 0.1-0.2 s of host time.
LAP_OPS = 2_000


class Laps:
    """``perf_counter`` readings at fixed points of one timed phase.

    The simulation is deterministic, so the stretch between two marks is
    the same work in every repetition, and a neighbour's burst that slows
    one stretch of one repetition leaves the same stretch of another
    alone.  The harness marks the start and the end of the phase; the
    workloads mark in between, from their own side of a public call.
    """

    def __init__(self) -> None:
        self.marks: List[float] = []

    def mark(self) -> None:
        self.marks.append(time.perf_counter())

    def every(
        self, operations: Iterable[Operation], stride: int = LAP_OPS
    ) -> Iterator[Operation]:
        """``operations``, with a mark each time the runner has pulled
        another ``stride`` of them."""
        for pulled, op in enumerate(operations, 1):
            yield op
            if pulled % stride == 0:
                self.mark()

    def segments(self) -> List[float]:
        """Seconds between consecutive marks."""
        return [later - earlier for earlier, later in zip(self.marks, self.marks[1:])]


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``bench/out`` (inside the checkout)."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR))


class CheckedAdapter:
    """Store adapter that checks every result against a reference dict.

    The model maps key -> value size last stored; keys of the prefilled
    population start at ``fill_bytes``.  Every completed read must return
    the modelled size.  Reads racing an update of the same key at queue
    depth > 1 may see either version, which is why the workloads keep one
    value size per key space: both versions then carry the same size and
    the check stays exact.  A not-found surfaces as a ``DeviceError`` the
    runner counts in ``failed_ops``; the workloads only address prefilled
    keys, so any failure is a defect.
    """

    def __init__(self, inner, fill_bytes: int, block_io: bool = False) -> None:
        self.inner = inner
        #: ``drive_workload`` snapshots ``adapter.device.stats``.
        self.device = inner.device
        self.fill_bytes = fill_bytes
        #: Block I/O has no stored sizes: a read returns the I/O size.
        self.block_io = block_io
        self.model: Dict[bytes, int] = {}
        self.reads_checked = 0
        self.mismatches = 0
        self.user_write_bytes = 0

    def execute(self, op: Operation) -> Generator[object, None, int]:
        result = yield from self.inner.execute(op)
        if op.op is OpType.READ:
            self.reads_checked += 1
            expected = (
                self.inner.io_bytes
                if self.block_io
                else self.model.get(op.key, self.fill_bytes)
            )
            if result != expected:
                self.mismatches += 1
        else:
            self.model[op.key] = op.value_bytes
            self.user_write_bytes += len(op.key) + op.value_bytes
        return result


def drain(env, target) -> None:
    """Settle background work (flushes, packing, GC) of a device or store."""
    process = env.process(target.drain())
    env.run_until_complete(process, limit=env.now + 600e6)


def latency_metrics(recorder: LatencyRecorder) -> Dict[str, float]:
    """Mean/p99 over all samples, the median, per-op-type p99, and the
    p99.9 where at least ten samples lie beyond it."""
    summary = recorder.summary()
    out = {
        "sim_mean_us": summary.mean,
        "sim_p99_us": summary.p99,
        "e2e.sim_p50_us": summary.p50,
        "metrics.latency_samples": float(summary.count),
    }
    if summary.count >= P999_MIN_SAMPLES:
        out["e2e.sim_p999_us"] = summary.p999
    if "read" in recorder.labels():
        out["e2e.sim_read_p99_us"] = recorder.summary("read").p99
    writes = sorted(
        s for label in ("insert", "update") for s in recorder.samples(label)
    )
    if writes:
        out["e2e.sim_write_p99_us"] = percentile(writes, 0.99)
    return out


def merge_recorders(recorders: List[LatencyRecorder]) -> LatencyRecorder:
    """Pool several sections' samples, keeping the per-op-type labels."""
    pooled = LatencyRecorder("pooled")
    for recorder in recorders:
        for label in recorder.labels():
            for sample in recorder.samples(label):
                pooled.record(sample, label)
    return pooled


def device_layer_metrics(
    stats, ops: int, user_bytes: int, page_bytes: int
) -> Dict[str, float]:
    """Per-layer counts from one ``DeviceStats`` delta over a phase."""
    per_op = 1.0 / ops
    return {
        "flash.reads_per_op": stats.flash_reads * per_op,
        "flash.programs_per_op": stats.flash_programs * per_op,
        "flash.erases_per_kop": stats.flash_erases * per_op * 1000.0,
        "flash.busy_us_per_op": stats.flash_busy_us * per_op,
        "ftl.gc_runs": float(stats.gc_runs),
        "ftl.gc_foreground_fraction": (
            stats.foreground_gc_runs / stats.gc_runs if stats.gc_runs else 0.0
        ),
        "ftl.gc_relocated_bytes_per_user_byte": (
            stats.gc_relocated_bytes / user_bytes if user_bytes else 0.0
        ),
        "ftl.buffer_stall_us_per_op": stats.buffer_stall_us * per_op,
        "ftl.allowance_stall_us_per_op": stats.allowance_stall_us * per_op,
        "kvftl.index_flash_reads_per_op": stats.index_flash_reads * per_op,
        "kvftl.index_flash_writes_per_op": stats.index_flash_writes * per_op,
        "faults.program_fails": float(stats.program_fails),
        "faults.retired_blocks": float(stats.retired_blocks),
        "e2e.sim_waf": (
            stats.flash_programs * page_bytes / user_bytes if user_bytes else 0.0
        ),
    }
