"""Per-figure experiment implementations.

One function per figure of the paper's evaluation (Figs. 2-8).  Each
builds fresh rigs, primes state exactly as the paper describes (scaled),
runs the measured phase through the KVbench-style runner, and returns a
structured result the CLI prints and EXPERIMENTS.md records.

Run sizes are scaled from the paper's (10 M+ operations on a 3.84 TB
drive) to laptop-feasible counts at *matched relative state* — see
DESIGN.md section 6 for the scaling discipline.  A function's defaults
are its recorded scale: the run its claims are checked at.

Every figure is internally a *sweep of independent cells* (one fresh
rig per cell): a module-level ``_figN_cell`` function, written once
for every system it measures (``build_rig`` → ``prime`` →
``run_phase``), fanned out by :func:`~repro.exec.runner.grid`.  Pass
``runner=`` (a :class:`~repro.exec.runner.SweepRunner`) to fan cells
out over a process pool and/or reuse cached cell results; without a
runner the cells execute inline, serially, exactly as the original
loops did.
Results are always assembled in spec order, so the figure output is
byte-identical at any worker count.

Every ``*Result`` renders and reduces itself: ``render()`` is the text
the CLI prints, ``metrics()`` the flat shape-metric dict the golden suite
diffs.  :mod:`repro.core.registry` lists the experiments and what the
paper reports for each; nothing else in the tree does either.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.run import run_cluster
from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec
from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.core.model import KVSSDModel, device_stats_summary
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.generators import (
    ChurnSpec,
    ExpirySpec,
    ScanMixSpec,
    generate_churn,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.report import format_table, sparkline
from repro.kvbench.runner import RunResult, run_phase
from repro.kvbench.traces import TraceWorkload, merge_traces
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec
from repro.kvftl.blob import layout_blob, space_amplification
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.nvme.command import commands_for_key
from repro.units import KIB, MIB

#: Key size used throughout the paper's macro experiments.
PAPER_KEY_BYTES = 16
#: The scheme producing 16-byte keys ("key-" + 12 digits).
PAPER_SCHEME = KeyScheme(prefix=b"key-", digits=12)
#: The scheme of every untimed prefill ("fill" + 12 digits, also 16 B).
FILL_SCHEME = KeyScheme(prefix=b"fill", digits=12)

#: Per-device rig options that keep index occupancy (Fig. 3's subject)
#: out of an experiment: ample index DRAM on the KV device; the block
#: device has no such pressure to relieve.
_AMPLE_INDEX: Dict[str, Dict[str, Any]] = {
    "kv": {"config": KVSSDConfig(index_dram_bytes=64 * MIB)},
    "block": {},
}

Metrics = Dict[str, float]


def _kib(size: int) -> str:
    return f"{size / KIB:g}KiB"


# ---------------------------------------------------------------------------
# Figure 2 — end-to-end latency: KV-SSD vs RocksDB vs Aerospike
# ---------------------------------------------------------------------------


@dataclass
class Fig2Result:
    """Mean latency (us) per system, pattern, and phase, plus CPU."""

    n_ops: int
    value_bytes: int
    queue_depth: int
    #: latency_us[system][pattern][phase] with phases insert/update/read.
    latency_us: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    #: host CPU microseconds per operation, per system.
    cpu_us_per_op: Dict[str, float] = field(default_factory=dict)

    def ratio(self, system_a: str, system_b: str, pattern: str, phase: str) -> float:
        """latency(system_a) / latency(system_b)."""
        return (
            self.latency_us[system_a][pattern][phase]
            / self.latency_us[system_b][pattern][phase]
        )

    def render(self) -> str:
        rows = [
            [system, pattern, phases["insert"], phases["update"], phases["read"]]
            for system, patterns in self.latency_us.items()
            for pattern, phases in patterns.items()
        ]
        cpu = {k: round(v, 1) for k, v in self.cpu_us_per_op.items()}
        return format_table(
            ["system", "pattern", "insert us", "update us", "read us"], rows
        ) + f"\n\nhost CPU per op (us): {cpu}"

    def metrics(self) -> Metrics:
        """Random-pattern latencies and CPU per system, RocksDB's insert
        latency over the KV-SSD's (the figure's headline comparison)."""
        metrics: Metrics = {}
        for system, patterns in self.latency_us.items():
            for phase, latency in patterns["rand"].items():
                metrics[f"{system}.rand.{phase}_us"] = latency
            metrics[f"{system}.cpu_us_per_op"] = self.cpu_us_per_op[system]
        metrics["rocksdb_over_kv.insert"] = self.ratio(
            "rocksdb", "kvssd", "rand", "insert"
        )
        return metrics


_FIG2_PATTERNS = {
    "seq": Pattern.SEQUENTIAL,
    "rand": Pattern.UNIFORM,
    "zipf": Pattern.ZIPFIAN,
}


def _fig2_cell(
    system: str,
    pattern_name: str,
    n_ops: int,
    value_bytes: int,
    queue_depth: int,
    blocks_per_plane: int,
) -> Dict[str, object]:
    """One (system, pattern) cell: insert, update, read on a fresh rig."""
    rig = build_rig(system, lab_geometry(blocks_per_plane))
    base = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=_FIG2_PATTERNS[pattern_name],
        population=n_ops,
        key_scheme=PAPER_SCHEME,
        value_bytes=value_bytes,
        seed=11,
    )
    adapter = rig.adapter_for(value_bytes)
    cpu_before = rig.cpu.total_busy_us
    runs = {
        phase: run_phase(
            rig,
            f"fig2.{system}.{pattern_name}.{phase}",
            replace(base, op=phase),
            queue_depth,
            adapter,
        )
        for phase in ("insert", "update", "read")
    }
    ops_counted = sum(run.completed_ops for run in runs.values())
    return {
        "phases": {phase: run.latency.mean() for phase, run in runs.items()},
        "cpu_us_per_op": (rig.cpu.total_busy_us - cpu_before)
        / max(1, ops_counted),
    }


def fig2_end_to_end(
    n_ops: int = 2500,
    value_bytes: int = 4 * KIB,
    queue_depth: int = 8,
    systems: Sequence[str] = ("kvssd", "rocksdb", "aerospike"),
    patterns: Sequence[str] = ("seq", "rand", "zipf"),
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Fig2Result:
    """Fig. 2: insert/update/read latency across systems and patterns.

    Per (system, pattern): a fresh rig inserts ``n_ops`` pairs of 16 B
    keys and ``value_bytes`` values in pattern order, then updates, then
    reads — all asynchronously at ``queue_depth``, as in the paper.
    """
    cells = grid(
        "fig2",
        _fig2_cell,
        {"system": systems, "pattern_name": patterns},
        dict(n_ops=n_ops, value_bytes=value_bytes, queue_depth=queue_depth,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig2Result(n_ops, value_bytes, queue_depth)
    for system in systems:
        result.latency_us[system] = {
            pattern_name: cells[system, pattern_name]["phases"]
            for pattern_name in patterns
        }
        result.cpu_us_per_op[system] = sum(
            cells[system, pattern_name]["cpu_us_per_op"]
            for pattern_name in patterns
        ) / len(patterns)
    return result


# ---------------------------------------------------------------------------
# Figure 3 — index occupancy
# ---------------------------------------------------------------------------


@dataclass
class Fig3Result:
    """Mean latencies (us) at low and high occupancy, per device."""

    low_kvps: int
    high_kvps: int
    value_bytes: int
    #: latency_us[device][occupancy][op] for device kv/block,
    #: occupancy low/high, op read/write.
    latency_us: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)

    def degradation(self, device: str, op: str) -> float:
        """high-occupancy latency over low-occupancy latency."""
        return (
            self.latency_us[device]["high"][op]
            / self.latency_us[device]["low"][op]
        )

    def render(self) -> str:
        rows = [
            [device, occupancy, cell["read"], cell["write"]]
            for device, occupancies in self.latency_us.items()
            for occupancy, cell in occupancies.items()
        ]
        return (
            format_table(["device", "occupancy", "read us", "write us"], rows)
            + f"\n\nKV degradation: write {self.degradation('kv', 'write'):.1f}x, "
            f"read {self.degradation('kv', 'read'):.1f}x"
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {
            "low_kvps": self.low_kvps,
            "high_kvps": self.high_kvps,
            "kv.read_degradation": self.degradation("kv", "read"),
        }
        for device, occupancies in self.latency_us.items():
            for occupancy, cell in occupancies.items():
                for op, latency in cell.items():
                    metrics[f"{device}.{occupancy}.{op}_us"] = latency
        return metrics


def _fig3_cell(
    device: str,
    occupancy: str,
    kvps: Dict[str, int],
    value_bytes: int,
    measured_ops: int,
    blocks_per_plane: int,
) -> Dict[str, float]:
    """Mean QD1 read then write (update) latency at one occupancy."""
    rig = build_rig(DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane))
    rig.prime(kvps[occupancy], value_bytes, FILL_SCHEME)
    adapter = rig.adapter_for(value_bytes)
    base = WorkloadSpec(
        n_ops=measured_ops,
        op="read",
        pattern=Pattern.UNIFORM,
        population=kvps[occupancy],
        key_scheme=FILL_SCHEME,
        value_bytes=value_bytes,
        seed=23,
    )
    return {
        label: run_phase(
            rig, f"fig3.{device}.{label}", replace(base, op=op), 1, adapter
        ).latency.mean()
        for label, op in (("read", "read"), ("write", "update"))
    }


def _fig3_occupancies(
    value_bytes: int,
    low_fraction: float,
    high_fraction: float,
    blocks_per_plane: int,
) -> Dict[str, int]:
    """Low/high pair counts as fractions of the device's KVP limit."""
    probe = build_rig("kvssd", lab_geometry(blocks_per_plane))
    physical_max = probe.pair_capacity(FILL_SCHEME.key_bytes, value_bytes)
    max_kvps = min(probe.device.max_kvps, int(physical_max * 0.9))
    return {
        "low": max(1000, int(max_kvps * low_fraction)),
        "high": int(max_kvps * high_fraction),
    }


def fig3_index_occupancy(
    value_bytes: int = 512,
    low_fraction: float = 0.0005,
    high_fraction: float = 0.95,
    measured_ops: int = 1500,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Fig3Result:
    """Fig. 3: latency at low vs high index occupancy, KV vs block.

    The paper fills 1.53 M (low) and 3 B (high) 512 B pairs on a 3.84 TB
    drive; the defaults match those *fractions of the device's KVP limit*
    on the scaled geometry.
    """
    kvps = _fig3_occupancies(
        value_bytes, low_fraction, high_fraction, blocks_per_plane
    )
    cells = grid(
        "fig3",
        _fig3_cell,
        {"device": DIRECT_SYSTEMS, "occupancy": kvps},
        dict(kvps=kvps, value_bytes=value_bytes, measured_ops=measured_ops,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig3Result(
        low_kvps=kvps["low"], high_kvps=kvps["high"], value_bytes=value_bytes
    )
    for device in DIRECT_SYSTEMS:
        result.latency_us[device] = {
            occupancy: cells[device, occupancy] for occupancy in kvps
        }
    return result


# ---------------------------------------------------------------------------
# Figure 4 — value size x concurrency latency ratios
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """KV/block mean-latency ratios per value size and queue depth."""

    value_sizes: List[int]
    queue_depths: List[int]
    #: ratio[op][qd][value_size] with op read/write; <1 favors KV-SSD.
    ratio: Dict[str, Dict[int, Dict[int, float]]] = field(default_factory=dict)
    #: raw latencies for the record: latency_us[device][op][qd][size].
    latency_us: Dict[str, Dict[str, Dict[int, Dict[int, float]]]] = field(
        default_factory=dict
    )

    def render(self) -> str:
        columns = [
            (op, qd) for qd in self.queue_depths for op in ("write", "read")
        ]
        rows = [
            [_kib(size)] + [self.ratio[op][qd][size] for op, qd in columns]
            for size in self.value_sizes
        ]
        return (
            format_table(
                ["value"] + [f"{op[0]} QD{qd}" for op, qd in columns], rows
            )
            + "\n\nKV/block mean-latency ratios; <1 favors the KV-SSD"
        )

    def metrics(self) -> Metrics:
        """Ratios and raw KV latencies at the sweep's first value size."""
        size = self.value_sizes[0]
        metrics: Metrics = {}
        for op, by_depth in self.ratio.items():
            for qd, by_size in by_depth.items():
                metrics[f"ratio.{op}.qd{qd}"] = by_size[size]
                metrics[f"kv.{op}.qd{qd}_us"] = (
                    self.latency_us["kv"][op][qd][size]
                )
        return metrics


def fig4_value_size_concurrency(
    value_sizes: Sequence[int] = (512, 4 * KIB, 16 * KIB, 32 * KIB, 64 * KIB),
    queue_depths: Sequence[int] = (1, 64),
    n_ops: int = 1200,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Fig4Result:
    """Fig. 4: direct-access latency ratio vs value size and queue depth.

    Same operation count per cell (the paper uses 1.53 M per value size);
    writes go to fresh keys, reads hit the just-written population.
    """
    cells = grid(
        "fig4",
        _fig4_cell,
        {"queue_depth": queue_depths, "size": value_sizes,
         "device": DIRECT_SYSTEMS},
        dict(n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig4Result(list(value_sizes), list(queue_depths))
    for op in ("read", "write"):
        result.ratio[op] = {
            qd: {
                size: cells[qd, size, "kv"][op] / cells[qd, size, "block"][op]
                for size in value_sizes
            }
            for qd in queue_depths
        }
    for device in DIRECT_SYSTEMS:
        result.latency_us[device] = {
            op: {
                qd: {size: cells[qd, size, device][op] for size in value_sizes}
                for qd in queue_depths
            }
            for op in ("read", "write")
        }
    return result


#: Per device: the capacity fraction the prefill spans and its pair cap.
#: KV is sized by *page* consumption (large unsplit blobs waste a page
#: fraction each) and keeps plenty of free blocks; block spans well past
#: the mapping segment cache so random really is random.
_FIG4_FILL = {"kv": (0.55, 100_000), "block": (0.7, 300_000)}


def _fig4_cell(
    device: str, queue_depth: int, size: int, n_ops: int, blocks_per_plane: int
) -> Dict[str, float]:
    """One cell: prefill a population, then random updates and reads.

    Fig. 4 is a *low-occupancy* size sweep (hence ``_AMPLE_INDEX``).
    Sizes that bulk-prime do so untimed; split blobs cannot, so they
    prefill through timed stores before the measured phase — matching the
    paper's fill-then-measure methodology either way.
    """
    rig = build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        **_AMPLE_INDEX[device],
    )
    adapter = rig.adapter_for(size)
    fraction, cap = _FIG4_FILL[device]
    bulk = min(
        cap, rig.pair_capacity(FILL_SCHEME.key_bytes, size, fraction=fraction)
    )
    population = max(n_ops, bulk)
    base = WorkloadSpec(
        n_ops=n_ops,
        op="read",
        pattern=Pattern.UNIFORM,
        population=population,
        key_scheme=FILL_SCHEME,
        value_bytes=size,
    )
    if bulk:
        rig.prime(population, size, FILL_SCHEME)
    else:
        prefill = replace(
            base, n_ops=population, op="insert", pattern=Pattern.SEQUENTIAL,
            seed=29,
        )
        run_phase(rig, f"fig4.{device}.fill.{size}", prefill, 16, adapter)
    return {
        label: run_phase(
            rig,
            f"fig4.{device}.{label}.{size}.qd{queue_depth}",
            replace(base, op=op, seed=seed),
            queue_depth,
            adapter,
        ).latency.mean()
        for label, op, seed in (("write", "update", 31), ("read", "read", 37))
    }


# ---------------------------------------------------------------------------
# Figure 5 — write bandwidth vs value size (packing zig-zag)
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    """Write bandwidth (MiB/s) per value size, per device."""

    value_sizes: List[int]
    kv_mib_s: Dict[int, float] = field(default_factory=dict)
    block_mib_s: Dict[int, float] = field(default_factory=dict)
    #: Fragments per blob on the KV side (the model's dip explanation).
    kv_fragments: Dict[int, int] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [_kib(size), self.kv_mib_s[size], self.block_mib_s[size],
             self.kv_fragments[size]]
            for size in self.value_sizes
        ]
        return format_table(
            ["value", "KV MiB/s", "block MiB/s", "fragments"], rows
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for size in self.value_sizes:
            metrics[f"kv.{size}.mib_s"] = self.kv_mib_s[size]
            metrics[f"block.{size}.mib_s"] = self.block_mib_s[size]
            metrics[f"kv.{size}.fragments"] = self.kv_fragments[size]
        return metrics


def fig5_packing_bandwidth(
    value_sizes: Sequence[int] = (
        4 * KIB,
        8 * KIB,
        16 * KIB,
        20 * KIB,
        24 * KIB,
        25 * KIB,
        28 * KIB,
        32 * KIB,
        40 * KIB,
        48 * KIB,
        49 * KIB,
        56 * KIB,
        64 * KIB,
    ),
    n_ops: int = 800,
    queue_depth: int = 32,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Fig5Result:
    """Fig. 5: write bandwidth sweep across the page-boundary sizes.

    KV-SSD dips just past each multiple of the usable page area (~24.5
    KiB: values of 25 KiB, 49 KiB, ...) where blobs start splitting; the
    block device stays smooth.
    """
    cells = grid(
        "fig5",
        _fig5_cell,
        {"size": value_sizes, "device": DIRECT_SYSTEMS},
        dict(n_ops=n_ops, queue_depth=queue_depth,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig5Result(list(value_sizes))
    page_bytes = lab_geometry(blocks_per_plane).page_bytes
    for size in value_sizes:
        result.kv_fragments[size] = len(
            layout_blob(
                PAPER_KEY_BYTES, size, page_bytes, KVSSDConfig()
            ).fragments
        )
        result.kv_mib_s[size] = cells[size, "kv"]
        result.block_mib_s[size] = cells[size, "block"]
    return result


def _fig5_cell(
    device: str, size: int, n_ops: int, queue_depth: int, blocks_per_plane: int
) -> float:
    """Sequential-insert bandwidth (MiB/s) of ``n_ops`` ``size``-byte values."""
    rig = build_rig(DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane))
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=PAPER_SCHEME,
        value_bytes=size,
        seed=41,
    )
    run = run_phase(
        rig, f"fig5.{device}.{size}", spec, queue_depth,
        rig.adapter_for(size), drain=False,
    )
    return run.bandwidth.overall_mib_per_sec()


# ---------------------------------------------------------------------------
# Figure 6 — foreground GC under random updates at 80% fill
# ---------------------------------------------------------------------------


@dataclass
class Fig6Result:
    """Bandwidth time series during the update phase, per scenario."""

    fill_fraction: float
    value_bytes: int
    n_updates: int
    #: series[scenario] -> MiB/s per window; scenarios kv-uniform,
    #: kv-window, rocksdb-uniform.
    series: Dict[str, List[float]] = field(default_factory=dict)
    foreground_gc_runs: Dict[str, int] = field(default_factory=dict)
    #: stats_summary[scenario] -> device_stats_summary() of the measured
    #: phase (waf, gc_moved_mib, foreground_gc_fraction, stall_ms, ...).
    stats_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: latency_summary[scenario] -> LatencySummary.as_dict() of the update
    #: stream (mean/p50/p99/p999), for the tail-collapse view of Fig. 6.
    latency_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def trough_ratio(self, scenario: str) -> float:
        """Worst window over the first window (1.0 = no collapse)."""
        windows = [w for w in self.series[scenario] if w > 0.0] or [0.0]
        head = windows[0] or 1.0
        return min(windows) / head

    def render(self) -> str:
        lines = []
        for scenario, series in self.series.items():
            summary = self.stats_summary[scenario]
            latency = self.latency_summary[scenario]
            lines.append(
                f"{scenario:<16} trough {self.trough_ratio(scenario):5.2f}  "
                f"fgGC {self.foreground_gc_runs[scenario]:4d}  "
                f"WAF {summary['waf']:5.2f}  "
                f"stall {summary['stall_ms']:8.1f}ms  "
                f"p99 {latency['p99'] / 1000.0:7.1f}ms  "
                f"p999 {latency['p999'] / 1000.0:7.1f}ms  "
                f"{sparkline(series[:48])}"
            )
        return "\n".join(lines)

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for scenario, series in self.series.items():
            summary = self.stats_summary[scenario]
            metrics[f"{scenario}.foreground_gc_runs"] = (
                self.foreground_gc_runs[scenario]
            )
            metrics[f"{scenario}.waf"] = summary["waf"]
            metrics[f"{scenario}.gc_moved_mib"] = summary["gc_moved_mib"]
            metrics[f"{scenario}.p99_us"] = (
                self.latency_summary[scenario]["p99"]
            )
            metrics[f"{scenario}.series_len"] = len(series)
            metrics[f"{scenario}.series_min"] = min(series)
            metrics[f"{scenario}.series_max"] = max(series)
        return metrics


def _fig6_fill_kvps(
    fill_fraction: float, value_bytes: int, blocks_per_plane: int
) -> int:
    """Pair count that fills ``fill_fraction`` of the page capacity.

    "80% full" is meant physically: 80% of the device's page capacity,
    with allocation-stream/GC margin excluded.
    """
    probe = build_rig("kvssd", lab_geometry(blocks_per_plane))
    capacity = probe.pair_capacity(
        PAPER_SCHEME.key_bytes, value_bytes,
        reserve_blocks=probe.device.config.stream_width + 16,
    )
    return int(capacity * fill_fraction)


#: Fig. 6 scenario -> (system, update pattern).
_FIG6_SCENARIOS = {
    "kv-uniform": ("kvssd", Pattern.UNIFORM),
    "kv-window": ("kvssd", Pattern.SLIDING_WINDOW),
    "rocksdb-uniform": ("rocksdb", Pattern.UNIFORM),
}


def _fig6_scenario_cell(
    scenario: str,
    fill_kvps: int,
    fill_fraction: float,
    value_bytes: int,
    n_updates: int,
    queue_depth: int,
    window_us: float,
    blocks_per_plane: int,
) -> Dict[str, object]:
    """One Fig. 6 scenario: prime the fill, then sustained updates."""
    system, pattern = _FIG6_SCENARIOS[scenario]
    rig = build_rig(system, lab_geometry(blocks_per_plane))
    if system == "kvssd":
        scheme, population = FILL_SCHEME, fill_kvps
    else:
        scheme = PAPER_SCHEME
        # The scenario's purpose is the *device-level* contrast (no
        # foreground GC under compaction+TRIM), so the LSM population
        # is sized to the update count rather than to raw capacity —
        # compacting a capacity-sized tree would dominate runtime
        # without changing the device-side observation.
        fs_budget = int(
            rig.device.user_capacity_bytes * fill_fraction * 0.45
        )
        population = min(
            n_updates, fs_budget // (scheme.key_bytes + value_bytes)
        )
    rig.prime(population, value_bytes, scheme)
    spec = WorkloadSpec(
        n_ops=n_updates,
        op="update",
        pattern=pattern,
        population=population,
        key_scheme=scheme,
        value_bytes=value_bytes,
        seed=47,
    )
    run = run_phase(
        rig, f"fig6.{scenario}", spec, queue_depth, drain=False,
        bandwidth_window_us=window_us, stop_after_us=45e6,
    )
    # The runner captured the DeviceStats delta for the measured phase;
    # both personalities report through the same struct, so the two
    # scenario branches need no per-device counter reads.
    return {
        "foreground_gc_runs": run.device_stats.foreground_gc_runs,
        "stats_summary": device_stats_summary(run.device_stats),
        "latency_summary": run.latency.summary().as_dict(),
        "series": run.bandwidth.series_mib_per_sec(),
    }


def fig6_foreground_gc(
    fill_fraction: float = 0.8,
    value_bytes: int = 4 * KIB,
    n_updates: Optional[int] = None,
    queue_depth: int = 16,
    window_us: float = 200_000.0,
    blocks_per_plane: int = 4,
    scenarios: Sequence[str] = tuple(_FIG6_SCENARIOS),
    runner: Optional[SweepRunner] = None,
) -> Fig6Result:
    """Fig. 6: fill 80% of the device, then update everything randomly.

    The KV scenarios (uniform and sliding-window pseudo-random) collapse
    into foreground GC once over-provisioning is exhausted; RocksDB on
    block (whose compaction TRIMs whole files) does not.
    """
    for scenario in scenarios:
        if scenario not in _FIG6_SCENARIOS:
            raise ConfigurationError(f"unknown fig6 scenario {scenario!r}")
    fill_kvps = _fig6_fill_kvps(fill_fraction, value_bytes, blocks_per_plane)
    if n_updates is None:
        # Enough updates to exhaust free space and enter the foreground-GC
        # regime; the measured phase is additionally duration-bounded
        # (stop_after_us in the cell), because inside the collapse the
        # device serves updates arbitrarily slowly — exactly the paper's
        # point.
        n_updates = int(fill_kvps * 0.55)
    cells = grid(
        "fig6",
        _fig6_scenario_cell,
        {"scenario": scenarios},
        dict(fill_kvps=fill_kvps, fill_fraction=fill_fraction,
             value_bytes=value_bytes, n_updates=n_updates,
             queue_depth=queue_depth, window_us=window_us,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig6Result(fill_fraction, value_bytes, n_updates)
    for scenario, cell in cells.items():
        result.foreground_gc_runs[scenario] = cell["foreground_gc_runs"]
        result.stats_summary[scenario] = cell["stats_summary"]
        result.latency_summary[scenario] = cell["latency_summary"]
        result.series[scenario] = cell["series"]
    return result


# ---------------------------------------------------------------------------
# Figure 7 — space amplification vs value size
# ---------------------------------------------------------------------------


@dataclass
class Fig7Result:
    """Space amplification per value size and system."""

    value_sizes: List[int]
    #: sa[system][value_size]; systems kvssd / aerospike / rocksdb.
    sa: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: KV-SSD analytic curve (blob layout closed form) for cross-check.
    kv_analytic: Dict[int, float] = field(default_factory=dict)
    max_kvps_full_scale: int = 0

    def render(self) -> str:
        rows = [
            [f"{size}B", self.sa["kvssd"][size], self.kv_analytic[size],
             self.sa["aerospike"][size], self.sa["rocksdb"][size]]
            for size in self.value_sizes
        ]
        return (
            format_table(
                ["value", "KV-SSD", "KV analytic", "Aerospike", "RocksDB"],
                rows,
            )
            + f"\n\nmax KVPs at 3.84 TB: {self.max_kvps_full_scale / 1e9:.2f}B"
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {
            "max_kvps_full_scale": self.max_kvps_full_scale,
            "rocksdb.sa": self.sa["rocksdb"][self.value_sizes[0]],
        }
        for size in self.value_sizes:
            metrics[f"kvssd.{size}.sa"] = self.sa["kvssd"][size]
            metrics[f"kvssd.{size}.analytic"] = self.kv_analytic[size]
            metrics[f"aerospike.{size}.sa"] = self.sa["aerospike"][size]
        return metrics


def _fig7_cell(
    size: int, kvps: int, blocks_per_plane: int
) -> Dict[str, float]:
    """One value size: measured KV-SSD, analytic KV, and Aerospike SA."""
    geometry = lab_geometry(blocks_per_plane)
    kv_rig = build_rig("kvssd", geometry)
    kv_rig.prime(min(kvps, kv_rig.device.max_kvps - 1), size, FILL_SCHEME)
    hash_rig = build_rig("aerospike", geometry)
    hash_rig.prime(kvps, size, FILL_SCHEME)
    return {
        "kvssd": kv_rig.device.stats.space_amplification(),
        "analytic": space_amplification(
            PAPER_SCHEME.key_bytes, size, geometry.page_bytes, KVSSDConfig()
        ),
        "aerospike": hash_rig.store.space_amplification(),
    }


def fig7_space_amplification(
    value_sizes: Sequence[int] = (50, 100, 200, 500, 1024, 2048, 4096),
    kvps: int = 20000,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Fig7Result:
    """Fig. 7: measured space amplification across value sizes.

    KV-SSD pays its 1 KiB minimum allocation (up to ~15-20x for 50 B
    values), Aerospike its 16 B rounding plus ~55 B of record overhead
    (<2x), RocksDB its leveled obsolescence (~1.11x steady state).
    """
    cells = grid(
        "fig7",
        _fig7_cell,
        {"size": value_sizes},
        dict(kvps=kvps, blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig7Result(list(value_sizes))
    result.sa = {"kvssd": {}, "aerospike": {}, "rocksdb": {}}
    for size, cell in cells.items():
        result.sa["kvssd"][size] = cell["kvssd"]
        result.kv_analytic[size] = cell["analytic"]
        result.sa["aerospike"][size] = cell["aerospike"]
        result.sa["rocksdb"][size] = _rocksdb_steady_state_sa(size)
    config = KVSSDConfig()
    result.max_kvps_full_scale = int(
        3.84e12 * config.index_region_fraction / config.index_slot_bytes
    )
    return result


def _rocksdb_steady_state_sa(value_bytes: int) -> float:
    """RocksDB's worst-case leveled space amplification.

    Dong et al. (CIDR'17, the paper's [12]): with a level size ratio of
    10, obsolete versions awaiting compaction are bounded by ~1/9 of the
    live data -> 1.111..., independent of value size.
    """
    del value_bytes  # level-structure property, not a size effect
    return 1.0 + 1.0 / 9.0


# ---------------------------------------------------------------------------
# Figure 8 — key size vs bandwidth (NVMe command cliff)
# ---------------------------------------------------------------------------


@dataclass
class Fig8Result:
    """Store bandwidth per key size, sync and async."""

    key_sizes: List[int]
    value_bytes: int
    #: mib_s[mode][key_size] with mode 'sync' / 'async'.
    mib_s: Dict[str, Dict[int, float]] = field(default_factory=dict)
    commands: Dict[int, int] = field(default_factory=dict)

    def cliff_ratio(self, mode: str) -> float:
        """Bandwidth just past the inline limit over bandwidth at it."""
        at_limit = max(k for k in self.key_sizes if k <= 16)
        past = min(k for k in self.key_sizes if k > 16)
        return self.mib_s[mode][past] / self.mib_s[mode][at_limit]

    def render(self) -> str:
        rows = [
            [f"{k}B", self.commands[k], self.mib_s["sync"][k],
             self.mib_s["async"][k]]
            for k in self.key_sizes
        ]
        return (
            format_table(["key", "cmds", "sync MiB/s", "async MiB/s"], rows)
            + f"\n\ncliff past 16B: async {self.cliff_ratio('async'):.2f}x"
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for key_bytes in self.key_sizes:
            metrics[f"commands.k{key_bytes}"] = self.commands[key_bytes]
        for mode, by_key in self.mib_s.items():
            for key_bytes, mib_s in by_key.items():
                metrics[f"{mode}.k{key_bytes}.mib_s"] = mib_s
            metrics[f"cliff_ratio.{mode}"] = self.cliff_ratio(mode)
        return metrics


def _fig8_cell(
    key_bytes: int,
    mode: str,
    value_bytes: int,
    n_ops: int,
    async_queue_depth: int,
    blocks_per_plane: int,
) -> float:
    """One (key size, sync/async) bandwidth cell; sync runs at QD1."""
    queue_depth = 1 if mode == "sync" else async_queue_depth
    # Build a scheme whose keys are exactly key_bytes long; one that could
    # not name n_ops keys drops its prefix (4 B: "0000"..., 10,000 names).
    digits = min(12, key_bytes - 1)
    if n_ops > 10 ** digits:
        digits = key_bytes
    scheme = KeyScheme(prefix=b"k" * (key_bytes - digits), digits=digits)
    rig = build_rig(
        "kvssd", lab_geometry(blocks_per_plane), sync=mode == "sync"
    )
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=scheme,
        value_bytes=value_bytes,
        seed=53,
    )
    run = run_phase(
        rig, f"fig8.{mode}.k{key_bytes}", spec, queue_depth, drain=False
    )
    return run.bandwidth.overall_mib_per_sec()


def fig8_key_size_bandwidth(
    key_sizes: Sequence[int] = (4, 8, 16, 24, 64, 128, 255),
    value_bytes: int = 1024,
    n_ops: int = 1200,
    async_queue_depth: int = 32,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Fig8Result:
    """Fig. 8: bandwidth vs key size; keys >16 B need a second command."""
    modes = ("sync", "async")
    cells = grid(
        "fig8",
        _fig8_cell,
        {"key_bytes": key_sizes, "mode": modes},
        dict(value_bytes=value_bytes, n_ops=n_ops,
             async_queue_depth=async_queue_depth,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    result = Fig8Result(list(key_sizes), value_bytes)
    result.commands = {k: commands_for_key(k) for k in key_sizes}
    result.mib_s = {
        mode: {k: cells[k, mode] for k in key_sizes} for mode in modes
    }
    return result


# ---------------------------------------------------------------------------
# Ablations — the mechanisms the paper hypothesizes, resized
#
# The paper explains its observations by mechanisms it cannot toggle on a
# shipped drive; here each is a config field, so each can be resized to
# show it carries the effect.  The closed-form model's own agreement with
# simulation is pinned by ``tests/test_model.py``.
# ---------------------------------------------------------------------------


@dataclass
class AblationsResult:
    """What each resized mechanism drives."""

    #: effect["mechanism.driven quantity"][setting] -> value.
    effect: Dict[str, Dict[Any, float]]

    def render(self) -> str:
        return "\n\n".join(
            f"-- {name.replace('.', ' -> ')} --\n"
            + format_table(["setting", "value"], settings.items())
            for name, settings in self.effect.items()
        )

    def metrics(self) -> Metrics:
        return {
            f"{name}.{setting}": value
            for name, settings in self.effect.items()
            for setting, value in settings.items()
        }


def _ablation_stream_cell(
    width: int, n_ops: int, queue_depth: int, blocks_per_plane: int
) -> float:
    """Mean 4 KiB insert latency (us) with ``width`` open write blocks."""
    rig = build_rig(
        "kvssd", lab_geometry(blocks_per_plane),
        config=KVSSDConfig(stream_width=width),
    )
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=PAPER_SCHEME,
        value_bytes=4 * KIB,
        seed=61,
    )
    run = run_phase(
        rig, f"ablations.width{width}", spec, queue_depth, drain=False
    )
    return run.latency.mean()


def ablations(
    stream_widths: Sequence[int] = (4, 8, 16),
    n_ops: int = 800,
    queue_depth: int = 64,
    blocks_per_plane: int = 8,
    runner: Optional[SweepRunner] = None,
) -> AblationsResult:
    """Resize each hypothesized mechanism; report what it drives.

    50 B-value space amplification per minimum allocation (Fig. 7) and
    the first value size whose blob splits per page reserve (Fig. 5),
    both closed form; the model's store latency at 90% of the KVP limit
    over an empty device's per index DRAM size (Fig. 3); and, simulated,
    mean insert latency per stream width in dies (Fig. 4).
    """
    geometry = lab_geometry(blocks_per_plane)
    page_bytes = geometry.page_bytes
    degradation = {}
    for label, dram in (("scaled", None), ("4MiB", 4 * MIB), ("64MiB", 64 * MIB)):
        model = KVSSDModel(geometry, KVSSDConfig(index_dram_bytes=dram))
        kvps = int(model.max_kvps() * 0.9)
        degradation[label] = (
            model.store_latency_us(PAPER_KEY_BYTES, 512, kvps)
            / model.store_latency_us(PAPER_KEY_BYTES, 512, 0)
        )
    return AblationsResult({
        "min_alloc_bytes.space_amp_50b": {
            min_alloc: space_amplification(
                PAPER_KEY_BYTES, 50, page_bytes,
                KVSSDConfig(min_alloc_bytes=min_alloc),
            )
            for min_alloc in (256, 512, 1024)
        },
        "index_dram.write_degradation": degradation,
        "stream_width.insert_us": grid(
            "ablations",
            _ablation_stream_cell,
            {"width": stream_widths},
            dict(n_ops=n_ops, queue_depth=queue_depth,
                 blocks_per_plane=blocks_per_plane),
            runner,
        ),
        "page_reserve_bytes.first_split_kib": {
            reserve: next(
                kib for kib in range(1, 65)
                if layout_blob(
                    PAPER_KEY_BYTES, kib * KIB, page_bytes,
                    KVSSDConfig(page_reserved_bytes=reserve),
                ).is_split
            )
            for reserve in (512, 4096, 7680)
        },
    })


# ---------------------------------------------------------------------------
# Cluster figures — beyond the paper's single device (ISSUE 7)
#
# The paper characterizes one PM983; its conclusion points at production
# KV serving, which means many devices behind a routing layer.  These
# three figures measure that layer: throughput scaling with shard count,
# tail latency through a fault-driven rebalance, and the cost of the
# replication factor.  Each cluster run fans out one simulated device
# per sweep-engine worker (``repro.cluster``), so the caching/parallel
# semantics match the paper figures exactly — at shard granularity.
# ---------------------------------------------------------------------------


def _run_cluster(
    n_ops: int,
    population: int,
    runner: Optional[SweepRunner],
    **spec_fields: Any,
) -> Any:
    """One cluster run under the default two-tenant YCSB A+B mix."""
    spec = ClusterSpec(
        tenants=(
            TenantSpec(name="ta", workload="A", n_ops=n_ops,
                       population=population, seed=11),
            TenantSpec(name="tb", workload="B", n_ops=n_ops,
                       population=population, seed=12),
        ),
        **spec_fields,
    )
    return run_cluster(spec, runner)


@dataclass
class ClusterScalingResult:
    """Cluster throughput vs shard count at fixed replication."""

    shard_counts: List[int]
    replication: int
    throughput_kops: Dict[int, float] = field(default_factory=dict)
    per_shard_kops: Dict[int, float] = field(default_factory=dict)
    router_share: Dict[int, float] = field(default_factory=dict)
    completed_ops: Dict[int, int] = field(default_factory=dict)
    stats_summary: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def scaling_ratio(self) -> float:
        """Throughput gain from the smallest to the largest cluster."""
        low = self.throughput_kops[min(self.shard_counts)]
        high = self.throughput_kops[max(self.shard_counts)]
        return high / low if low > 0 else 0.0

    def render(self) -> str:
        rows = [
            [n, round(self.throughput_kops[n], 2),
             round(self.per_shard_kops[n], 2),
             round(self.router_share[n], 4), self.completed_ops[n]]
            for n in self.shard_counts
        ]
        return (
            "-- throughput vs shard count --\n"
            + format_table(
                ["shards", "kops", "kops/shard", "router share", "ops"], rows
            )
            + f"\nscaling {min(self.shard_counts)}->{max(self.shard_counts)} "
            f"shards: {self.scaling_ratio():.2f}x"
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {"scaling_ratio": self.scaling_ratio()}
        for n in self.shard_counts:
            metrics[f"s{n}.throughput_kops"] = self.throughput_kops[n]
            metrics[f"s{n}.router_share"] = self.router_share[n]
            metrics[f"s{n}.completed_ops"] = self.completed_ops[n]
            metrics[f"s{n}.waf"] = self.stats_summary[n]["waf"]
        return metrics


def cluster_shard_scaling(
    shard_counts: Sequence[int] = (2, 4, 8),
    replication: int = 2,
    n_ops: int = 300,
    population: int = 900,
    partitions: int = 16,
    runner: Optional[SweepRunner] = None,
) -> ClusterScalingResult:
    """Cluster throughput vs shard count (fixed tenant mix and R).

    The same multi-tenant YCSB stream is routed over progressively more
    shards; throughput is completed device operations per millisecond of
    makespan (the slowest shard bounds the cluster).
    """
    result = ClusterScalingResult(list(shard_counts), replication)
    for shards in shard_counts:
        cluster = _run_cluster(
            n_ops,
            population,
            runner,
            shards=shards,
            replication=min(replication, shards),
            partitions=partitions,
            seed=21,
            verify=False,
        )
        result.throughput_kops[shards] = cluster.throughput_kops()
        result.per_shard_kops[shards] = cluster.throughput_kops() / shards
        result.router_share[shards] = cluster.router_share()
        result.completed_ops[shards] = cluster.completed_ops
        result.stats_summary[shards] = device_stats_summary(
            cluster.device_stats()
        )
    return result


@dataclass
class ClusterRebalanceResult:
    """Tail latency through a mid-run read-only degradation."""

    shards: int
    replication: int
    degraded_shard: int
    #: phase label -> {count, mean, p99, p999}; p99/p999 are the worst
    #: shard's (cluster tail), mean is count-weighted across shards.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    drain_ops: int = 0
    zero_lost_writes: bool = False
    verify_checked: int = 0
    router_share: float = 0.0
    trace_spans: int = 0
    fingerprint: str = ""
    stats_summary: Dict[str, float] = field(default_factory=dict)

    def tail_inflation(self, quantile: str = "p99") -> float:
        """Rebalance-window tail over pre-fault tail (>= 1 expected)."""
        pre = self.phases.get("pre", {}).get(quantile, 0.0)
        rebalance = self.phases.get("rebalance", {}).get(quantile, 0.0)
        return rebalance / pre if pre > 0 else 0.0

    def render(self) -> str:
        rows = [
            [label, int(cell["count"]), round(cell["mean"], 1),
             round(cell["p99"], 1), round(cell["p999"], 1)]
            for label, cell in self.phases.items()
        ]
        return (
            "-- tail latency through a rebalance window --\n"
            + format_table(
                ["phase", "ops", "mean us", "p99 us", "p999 us"], rows
            )
            + "\np99 inflation during rebalance: "
            f"{self.tail_inflation('p99'):.2f}x  "
            f"(drain {self.drain_ops} ops, "
            f"router share {self.router_share:.4f}, "
            f"{self.trace_spans} spans, "
            f"zero-lost={self.zero_lost_writes})"
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {
            "drain_ops": self.drain_ops,
            "zero_lost_writes": int(self.zero_lost_writes),
            "verify_checked": self.verify_checked,
            "router_share": self.router_share,
            "trace_spans": self.trace_spans,
            "tail_inflation.p99": self.tail_inflation("p99"),
            "waf": self.stats_summary["waf"],
        }
        for label, cell in self.phases.items():
            for name, value in cell.items():
                metrics[f"{label}.{name}"] = value
        return metrics


def cluster_rebalance_tail(
    shards: int = 4,
    replication: int = 2,
    n_ops: int = 300,
    population: int = 800,
    partitions: int = 16,
    degrade_at: Optional[int] = None,
    rebalance_window_ops: int = 200,
    degraded_shard: int = 1,
    runner: Optional[SweepRunner] = None,
) -> ClusterRebalanceResult:
    """p99/p999 before, during, and after a fault-driven rebalance.

    One shard's device is degraded to read-only mid-run through the real
    fault machinery; the router drains its ranges to replicas while
    client traffic continues.  Per-phase latency shows the rebalance
    window's tail cost.  Runs with span tracing on, so router-vs-device
    attribution rides along.
    """
    total = 2 * n_ops  # two tenants
    at_op = degrade_at if degrade_at is not None else total // 2
    cluster = _run_cluster(
        n_ops,
        population,
        runner,
        degrade=(DegradeEvent(shard=degraded_shard, at_op=at_op),),
        shards=shards,
        replication=replication,
        partitions=partitions,
        rebalance_window_ops=rebalance_window_ops,
        seed=23,
        trace=True,
        verify=True,
    )
    result = ClusterRebalanceResult(
        shards=shards,
        replication=replication,
        degraded_shard=degraded_shard,
        drain_ops=cluster.drain_ops,
        zero_lost_writes=cluster.zero_lost_writes,
        verify_checked=cluster.verify_checked,
        router_share=cluster.router_share(),
        trace_spans=sum(s.trace_spans for s in cluster.shards),
        fingerprint=cluster.fingerprint(),
        stats_summary=device_stats_summary(cluster.device_stats()),
    )
    for label in ("pre", "rebalance", "post", "drain"):
        count = 0
        weighted_mean = 0.0
        for shard in cluster.shards:
            summary = shard.latency.get(label)
            if summary is not None:
                count += summary.count
                weighted_mean += summary.mean * summary.count
        if count == 0:
            continue
        p99, p999 = cluster.tail(label)
        result.phases[label] = {
            "count": float(count),
            "mean": weighted_mean / count,
            "p99": p99,
            "p999": p999,
        }
    return result


@dataclass
class ClusterReplicationResult:
    """Throughput and media cost of the replication factor."""

    factors: List[int]
    shards: int
    throughput_kops: Dict[int, float] = field(default_factory=dict)
    routed_ops: Dict[int, int] = field(default_factory=dict)
    flash_programs: Dict[int, int] = field(default_factory=dict)
    read_p99: Dict[int, float] = field(default_factory=dict)
    stats_summary: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def write_cost(self, factor: int) -> float:
        """Flash programs at R=``factor`` relative to R=1."""
        base = self.flash_programs.get(1, 0)
        return self.flash_programs[factor] / base if base else 0.0

    def render(self) -> str:
        rows = [
            [r, round(self.throughput_kops[r], 2), self.routed_ops[r],
             self.flash_programs[r], round(self.write_cost(r), 2),
             round(self.read_p99[r], 1)]
            for r in self.factors
        ]
        return "-- replication-factor cost --\n" + format_table(
            ["R", "kops", "routed ops", "flash programs", "write cost",
             "read p99 us"],
            rows,
        )

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for r in self.factors:
            metrics[f"r{r}.throughput_kops"] = self.throughput_kops[r]
            metrics[f"r{r}.routed_ops"] = self.routed_ops[r]
            metrics[f"r{r}.flash_programs"] = self.flash_programs[r]
            metrics[f"r{r}.write_cost"] = self.write_cost(r)
            metrics[f"r{r}.read_p99_us"] = self.read_p99[r]
        return metrics


def cluster_replication_cost(
    factors: Sequence[int] = (1, 2, 3),
    shards: int = 4,
    n_ops: int = 300,
    population: int = 900,
    partitions: int = 16,
    runner: Optional[SweepRunner] = None,
) -> ClusterReplicationResult:
    """Write-all fan-out cost as the replication factor grows.

    Same stream, same shards, R swept: routed device operations and
    flash programs grow with R while read tails stay flat (read-one).
    """
    result = ClusterReplicationResult(list(factors), shards)
    for factor in factors:
        cluster = _run_cluster(
            n_ops,
            population,
            runner,
            shards=shards,
            replication=factor,
            partitions=partitions,
            seed=29,
            verify=False,
        )
        result.throughput_kops[factor] = cluster.throughput_kops()
        result.routed_ops[factor] = cluster.routed_ops
        stats = cluster.device_stats()
        result.flash_programs[factor] = stats.flash_programs
        result.read_p99[factor] = cluster.tail("pre")[0]
        result.stats_summary[factor] = device_stats_summary(stats)
    return result


# ---------------------------------------------------------------------------
# Replay figures — trace-driven, time-varying workloads (ISSUE 10)
#
# The paper's figures all drive stationary synthetic distributions; these
# two replay *time-varying* trace streams (``repro.kvbench.traces``) and
# ask questions the paper never measured.  Rotation: does the KV-FTL's
# location-agnostic hash index still beat the block stack when the whole
# hot set is replaced mid-run?  Mix: what do TTL-driven deletes and
# prefix scans — the iterator buckets' first real exercise — do to the
# read tail?  Cells run through the sweep engine, so both figures are
# cached, parallel-safe, and fingerprint-pinned like every other.
# ---------------------------------------------------------------------------


#: The TTL stream's own key namespace (the prefill uses FILL_SCHEME).
_REPLAY_TTL_SCHEME = KeyScheme(prefix=b"ttl-", digits=12)


def _replay_cell(run: RunResult) -> Dict[str, object]:
    """The latency/ops/telemetry fields every replay cell reports."""
    summary = run.latency.summary()
    return {
        "mean": summary.mean,
        "p99": summary.p99,
        "p999": summary.p999,
        "completed": run.completed_ops,
        "failed": run.failed_ops,
        "stats": device_stats_summary(run.device_stats),
    }


def _replay_rotation_cell(
    device: str,
    rotate_every: int,
    n_ops: int,
    population: int,
    working_set: int,
    value_bytes: int,
    queue_depth: int,
    blocks_per_plane: int,
    seed: int,
) -> Dict[str, object]:
    """One device under one churn schedule: prefill, then replay.

    Both devices replay the *same* churn records (same keys, same order).
    """
    rig = build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        **_AMPLE_INDEX[device],
    )
    rig.prime(population, value_bytes, FILL_SCHEME)
    spec = ChurnSpec(
        n_ops=n_ops,
        population=population,
        working_set=working_set,
        rotate_every_ops=rotate_every,
        value_bytes=value_bytes,
        key_scheme=FILL_SCHEME,
        seed=seed,
    )
    workload = TraceWorkload(
        tuple(generate_churn(spec)), key_scheme=FILL_SCHEME
    )
    return _replay_cell(run_phase(
        rig, f"replay.rot.{device}.{rotate_every}", workload.operations(),
        queue_depth, rig.adapter_for(value_bytes),
    ))


@dataclass
class ReplayRotationResult:
    """KV vs block latency/amplification under working-set rotation."""

    n_ops: int
    population: int
    working_set: int
    rotate_every: List[int]
    #: latency_us[device][rotate_every] -> {mean, p99, p999}.
    latency_us: Dict[str, Dict[int, Dict[str, float]]] = field(
        default_factory=dict
    )
    #: Device telemetry summary per (device, rotate_every) — WAF etc.
    stats_summary: Dict[str, Dict[int, Dict[str, float]]] = field(
        default_factory=dict
    )
    completed_ops: Dict[str, Dict[int, int]] = field(default_factory=dict)

    def rotation_penalty(self, device: str, quantile: str = "p99") -> float:
        """Fastest-churn tail over the static (rotate=0) tail."""
        static = self.latency_us[device].get(0)
        if not static or static[quantile] <= 0:
            return 0.0
        churned = self.latency_us[device][min(
            r for r in self.rotate_every if r > 0
        )]
        return churned[quantile] / static[quantile]

    def render(self) -> str:
        rows = []
        for device, by_rotate in self.latency_us.items():
            for rotate, cell in by_rotate.items():
                rows.append([
                    device, rotate or "static", round(cell["mean"], 1),
                    round(cell["p99"], 1), round(cell["p999"], 1),
                    round(self.stats_summary[device][rotate]["waf"], 2),
                    self.completed_ops[device][rotate],
                ])
        lines = [
            "-- working-set rotation: KV vs block --",
            format_table(
                ["device", "rotate every", "mean us", "p99 us", "p999 us",
                 "WAF", "ops"],
                rows,
            ),
        ]
        lines += [
            f"{device} rotation p99 penalty: "
            f"{self.rotation_penalty(device):.2f}x"
            for device in self.latency_us
        ]
        return "\n".join(lines)

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for device, by_rotate in self.latency_us.items():
            for rotate, latency in by_rotate.items():
                tag = f"{device}.rot{rotate}"
                metrics[f"{tag}.mean_us"] = latency["mean"]
                metrics[f"{tag}.p99_us"] = latency["p99"]
                metrics[f"{tag}.p999_us"] = latency["p999"]
                metrics[f"{tag}.waf"] = (
                    self.stats_summary[device][rotate]["waf"]
                )
                metrics[f"{tag}.completed"] = (
                    self.completed_ops[device][rotate]
                )
            metrics[f"{device}.rotation_penalty"] = (
                self.rotation_penalty(device)
            )
        return metrics


def replay_rotation(
    rotate_every: Sequence[int] = (0, 500, 100),
    n_ops: int = 2000,
    population: int = 4096,
    working_set: int = 256,
    value_bytes: int = 4 * KIB,
    queue_depth: int = 8,
    devices: Sequence[str] = ("kv", "block"),
    blocks_per_plane: int = 16,
    seed: int = 17,
    runner: Optional[SweepRunner] = None,
) -> ReplayRotationResult:
    """Replay figure 1: churn replay, KV vs block.

    Both devices replay byte-identical churn traces: uniform read/update
    traffic over a ``working_set``-key window that jumps wholesale every
    ``rotate_every`` ops (0 = pinned window, the stationary control).
    The block stack's placement rewards stable locality; the KV-FTL's
    hash index never looked at locality in the first place — rotation is
    where that difference should surface, or be shown not to matter.
    """
    for device in devices:
        if device not in DIRECT_SYSTEMS:
            raise ConfigurationError(f"unknown replay device {device!r}")
    cells = grid(
        "replay_rotation",
        _replay_rotation_cell,
        {"device": devices, "rotate_every": rotate_every},
        dict(n_ops=n_ops, population=population, working_set=working_set,
             value_bytes=value_bytes, queue_depth=queue_depth,
             blocks_per_plane=blocks_per_plane, seed=seed),
        runner,
    )
    result = ReplayRotationResult(
        n_ops, population, working_set, list(rotate_every)
    )
    for device in devices:
        by_rotate = {rotate: cells[device, rotate] for rotate in rotate_every}
        result.latency_us[device] = {
            rotate: {q: cell[q] for q in ("mean", "p99", "p999")}
            for rotate, cell in by_rotate.items()
        }
        result.stats_summary[device] = {
            rotate: cell["stats"] for rotate, cell in by_rotate.items()
        }
        result.completed_ops[device] = {
            rotate: cell["completed"] for rotate, cell in by_rotate.items()
        }
    return result


def _replay_mix_cell(
    variant: str,
    n_ops: int,
    population: int,
    ttl_ops: int,
    ttl_us: float,
    scan_fraction: float,
    scan_length: int,
    value_bytes: int,
    queue_depth: int,
    blocks_per_plane: int,
    seed: int,
) -> Dict[str, object]:
    """One mix variant on a fresh KV rig: plain / ttl / ttl+scan.

    The base stream is a point read/update mix over a prefilled
    population; the ``ttl`` variants merge in an expiry stream (its own
    key prefix, inserts re-arming TTLs, deletes materialized at expiry);
    ``ttl+scan`` additionally turns ``scan_fraction`` of the base ops
    into prefix scans through the YCSB driver's emulated-scan path — the
    iterator buckets' first sustained exercise.
    """
    rig = build_rig(
        "kvssd", lab_geometry(blocks_per_plane), **_AMPLE_INDEX["kv"]
    )
    scheme = FILL_SCHEME
    rig.prime(population, value_bytes, scheme)
    base = ScanMixSpec(
        n_ops=n_ops,
        population=population,
        scan_fraction=scan_fraction if variant == "ttl+scan" else 0.0,
        scan_length=scan_length,
        value_bytes=value_bytes,
        key_scheme=scheme,
        seed=seed,
    )
    streams = [generate_scan_mix(base)]
    if variant in ("ttl", "ttl+scan"):
        expiry = ExpirySpec(
            n_ops=ttl_ops,
            population=max(1, population // 4),
            ttl_us=ttl_us,
            value_bytes=value_bytes,
            interarrival_us=(n_ops * 100.0) / ttl_ops,
            key_scheme=_REPLAY_TTL_SCHEME,
            seed=seed + 1,
        )
        streams.append(generate_expiry(expiry))
    elif variant != "plain":
        raise ConfigurationError(f"unknown replay mix variant {variant!r}")
    workload = TraceWorkload(merge_traces(*streams), key_scheme=scheme)
    driver = YCSBDriver(
        rig.adapter,
        YCSBSpec(
            workload="E",
            n_ops=n_ops,
            population=population,
            key_scheme=scheme,
            value_bytes=value_bytes,
            scan_length=scan_length,
            seed=seed,
        ),
    )
    run = run_phase(
        rig, f"replay.mix.{variant}", workload.operations(), queue_depth,
        driver,
    )
    read_summary = run.latency.summary("read")
    buckets = rig.device.iterators
    return {
        **_replay_cell(run),
        "read_p99": read_summary.p99,
        "read_p999": read_summary.p999,
        "deletes": run.latency.count("delete"),
        "scans": driver.scans_run,
        "bucket_keys": buckets.total_keys,
        "bucket_count": len(buckets.buckets()),
        "bucket_page_writes": buckets.bucket_page_writes,
    }


@dataclass
class ReplayMixResult:
    """Tail latency across TTL/expiry and scan-heavy mix variants."""

    n_ops: int
    population: int
    variants: List[str]
    #: latency_us[variant] -> {mean, p99, p999, read_p99, read_p999}.
    latency_us: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: ops[variant] -> {completed, failed, deletes, scans}.
    ops: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: buckets[variant] -> {keys, count, page_writes}.
    buckets: Dict[str, Dict[str, int]] = field(default_factory=dict)
    stats_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def tail_inflation(self, variant: str, quantile: str = "read_p99") -> float:
        """Variant read tail over the plain point-op baseline."""
        base = self.latency_us.get("plain", {}).get(quantile, 0.0)
        if base <= 0:
            return 0.0
        return self.latency_us[variant][quantile] / base

    def render(self) -> str:
        rows = [
            [variant, round(self.latency_us[variant]["read_p99"], 1),
             round(self.latency_us[variant]["read_p999"], 1),
             ops["completed"], ops["failed"], ops["deletes"], ops["scans"],
             self.buckets[variant]["keys"],
             self.buckets[variant]["page_writes"]]
            for variant, ops in self.ops.items()
        ]
        lines = [
            "-- TTL + scan mix: read-tail cost --",
            format_table(
                ["variant", "read p99", "read p999", "ops", "fail",
                 "deletes", "scans", "bucket keys", "bucket pages"],
                rows,
            ),
        ]
        scan_variant = next((v for v in self.variants if "scan" in v), None)
        if scan_variant is not None:
            lines.append(
                f"read-tail inflation ({scan_variant} vs plain): "
                f"{self.tail_inflation(scan_variant):.2f}x"
            )
        return "\n".join(lines)

    def metrics(self) -> Metrics:
        metrics: Metrics = {}
        for variant in self.variants:
            latency = self.latency_us[variant]
            metrics[f"{variant}.p99_us"] = latency["p99"]
            metrics[f"{variant}.read_p99_us"] = latency["read_p99"]
            metrics[f"{variant}.read_p999_us"] = latency["read_p999"]
            for name, value in self.ops[variant].items():
                metrics[f"{variant}.{name}"] = value
            for name, value in self.buckets[variant].items():
                metrics[f"{variant}.bucket_{name}"] = value
            metrics[f"{variant}.waf"] = self.stats_summary[variant]["waf"]
            if variant != "plain":
                metrics[f"tail_inflation.{variant}"] = (
                    self.tail_inflation(variant)
                )
        return metrics


def replay_ttl_scan_mix(
    variants: Sequence[str] = ("plain", "ttl", "ttl+scan"),
    n_ops: int = 1500,
    population: int = 2048,
    ttl_ops: int = 600,
    ttl_us: float = 8000.0,
    scan_fraction: float = 0.25,
    scan_length: int = 16,
    value_bytes: int = 4 * KIB,
    queue_depth: int = 8,
    blocks_per_plane: int = 16,
    seed: int = 19,
    runner: Optional[SweepRunner] = None,
) -> ReplayMixResult:
    """Replay figure 2: read-tail cost of TTL churn and prefix scans.

    Same prefilled KV device, three trace variants: point ops only
    (``plain``), point ops merged with a TTL insert/expire/delete stream
    (``ttl``), and that plus prefix scans (``ttl+scan``).  The read tail
    across variants prices what the paper's stationary workloads never
    bill: expiry-driven delete traffic and bucket-walking scans sharing
    the device with point reads.
    """
    cells = grid(
        "replay_mix",
        _replay_mix_cell,
        {"variant": variants},
        dict(n_ops=n_ops, population=population, ttl_ops=ttl_ops,
             ttl_us=ttl_us, scan_fraction=scan_fraction,
             scan_length=scan_length, value_bytes=value_bytes,
             queue_depth=queue_depth, blocks_per_plane=blocks_per_plane,
             seed=seed),
        runner,
    )
    result = ReplayMixResult(n_ops, population, list(variants))
    for variant, cell in cells.items():
        result.latency_us[variant] = {
            q: cell[q]
            for q in ("mean", "p99", "p999", "read_p99", "read_p999")
        }
        result.ops[variant] = {
            name: cell[name]
            for name in ("completed", "failed", "deletes", "scans")
        }
        result.buckets[variant] = {
            name: cell[f"bucket_{name}"]
            for name in ("keys", "count", "page_writes")
        }
        result.stats_summary[variant] = cell["stats"]
    return result
