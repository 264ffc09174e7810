"""Per-figure experiment implementations.

One function per figure of the paper's evaluation (Figs. 2-8).  Each
builds fresh rigs, primes state exactly as the paper describes (scaled),
runs the measured phase through the KVbench-style runner, and returns
the result the CLI prints and EXPERIMENTS.md records.

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

Every row returns the one result shape of :mod:`repro.kvbench.report`:
its values by dotted name over the axes it swept (``kvssd.rand.insert_us``)
and its module-level :class:`~repro.kvbench.report.Layout` — the row's one
declaration of derived values and text, from which ``render()`` is read.
The golden suite pins every value of the recorded run.  A claim in
:mod:`repro.core.registry` names one value; that module lists the
experiments and what the paper reports for each, and nothing else in the
tree does either.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Optional, Sequence

from repro.cluster.run import run_cluster
from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec
from repro.core.experiment import DIRECT_SYSTEMS, build_rig, lab_geometry
from repro.core.model import KVSSDModel
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner, grid
from repro.kvbench.generators import (
    SCAN_MIX_LENGTH,
    ChurnSpec,
    ExpirySpec,
    ScanMixSpec,
    generate_churn,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.report import (
    Layout,
    Result,
    Table,
    label,
    named,
    ratio,
    rounded,
    sparkline,
    spell,
)
from repro.kvbench.runner import RunResult, run_phase
from repro.kvbench.traces import TraceWorkload, merge_traces
from repro.kvbench.workload import Pattern, WorkloadSpec
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec
from repro.kvftl.blob import layout_blob, space_amplification
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.nvme.command import commands_for_key
from repro.units import KIB, MIB, float_sum

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


def _kib(result: Result, coords: Dict[str, Any]) -> str:
    """A value-size label cell: ``4KiB``."""
    return f"{coords['size'] / KIB:g}KiB"


_R1 = rounded(1)


# ---------------------------------------------------------------------------
# Figure 2 — end-to-end latency: KV-SSD vs RocksDB vs Aerospike
# ---------------------------------------------------------------------------


def _host_vs_kv(numerator: str, denominator: str) -> Callable[..., Any]:
    """:func:`ratio` between a host stack and KV-SSD at ``{system}``;
    none at ``kvssd`` itself, where it is 1 by construction."""
    of = ratio(numerator, denominator)
    return lambda result, system, **coords: (
        None if system == "kvssd" else of(result, system=system, **coords)
    )


FIG2 = Layout(
    derived={
        "kvssd.seq_over_rand.{phase}": ratio(
            "kvssd.seq.{phase}_us", "kvssd.rand.{phase}_us"),
        "{system}_over_kv.{phase}": _host_vs_kv(
            "{system}.rand.{phase}_us", "kvssd.rand.{phase}_us"),
        "kv_over_{system}.{phase}": _host_vs_kv(
            "kvssd.rand.{phase}_us", "{system}.rand.{phase}_us"),
        # Sec. I's host CPU reductions, read off the rand cells.
        "cpu_reduction_vs_rocksdb": ratio(
            "rocksdb.rand.cpu_us_per_op", "kvssd.rand.cpu_us_per_op"),
        "cpu_reduction_vs_aerospike": ratio(
            "aerospike.rand.cpu_us_per_op", "kvssd.rand.cpu_us_per_op"),
        "cpu_reduction.aerospike_over_rocksdb": ratio(
            "cpu_reduction_vs_aerospike", "cpu_reduction_vs_rocksdb"),
    },
    sections=(
        Table(("system", "pattern"), {
            "system": label("{system}"), "pattern": label("{pattern}"),
            "{phase} us": "{system}.{pattern}.{phase}_us",
        }),
        lambda r: "host CPU per op (us): " + str({
            system: round(r[f"{system}.cpu_us_per_op"], 1)
            for system in r.axes["system"]
        }),
    ),
)

_FIG2_PATTERNS = {
    "seq": Pattern.SEQUENTIAL,
    "rand": Pattern.UNIFORM,
    "zipf": Pattern.ZIPFIAN,
}


def _fig2_cell(
    system: str, pattern_name: str, n_ops: int, blocks_per_plane: int
) -> Dict[str, float]:
    """One (system, pattern) cell: insert, update, read on a fresh rig."""
    base = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=_FIG2_PATTERNS[pattern_name],
        population=n_ops,
        key_scheme=PAPER_SCHEME,
        value_bytes=4 * KIB,
        seed=11,
    )
    with build_rig(system, lab_geometry(blocks_per_plane)) as rig:
        adapter = rig.adapter_for(4 * KIB)
        cpu_before = rig.cpu.total_busy_us
        runs = {
            phase: run_phase(
                rig,
                f"fig2.{system}.{pattern_name}.{phase}",
                replace(base, op=phase),
                8,
                adapter,
            )
            for phase in ("insert", "update", "read")
        }
        cpu_us = rig.cpu.total_busy_us - cpu_before
    ops_counted = sum(run.completed_ops for run in runs.values())
    return {
        **{f"{phase}_us": run.latency.mean() for phase, run in runs.items()},
        "cpu_us_per_op": cpu_us / max(1, ops_counted),
    }


def fig2_end_to_end(
    n_ops: int = 2500,
    systems: Sequence[str] = ("kvssd", "rocksdb", "aerospike"),
    patterns: Sequence[str] = ("seq", "rand", "zipf"),
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Fig. 2: insert/update/read latency across systems and patterns.

    Per (system, pattern): a fresh rig inserts ``n_ops`` pairs of 16 B
    keys and 4 KiB values in pattern order, then updates, then reads —
    all asynchronously at QD8, as in the paper.
    """
    cells = grid(
        "fig2",
        _fig2_cell,
        {"system": systems, "pattern_name": patterns},
        dict(n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    values = named(cells, ("system", "pattern"), "{system}.{pattern}")
    for system in systems:
        values[f"{system}.cpu_us_per_op"] = float_sum(
            values[f"{system}.{pattern}.cpu_us_per_op"] for pattern in patterns
        ) / len(patterns)
    return FIG2.result(values, system=systems, pattern=patterns,
                       phase=("insert", "update", "read"))


# ---------------------------------------------------------------------------
# Figure 3 — index occupancy
# ---------------------------------------------------------------------------


FIG3 = Layout(
    derived={
        "{device}.{op}_degradation": ratio(
            "{device}.high.{op}_us", "{device}.low.{op}_us"),
        "kv_over_block.high.read": ratio("kv.high.read_us", "block.high.read_us"),
    },
    sections=(
        Table(("device", "occupancy"), {
            "device": label("{device}"), "occupancy": label("{occupancy}"),
            "{op} us": "{device}.{occupancy}.{op}_us",
        }),
        lambda r: (f"KV degradation: write {r['kv.write_degradation']:.1f}x, "
                   f"read {r['kv.read_degradation']:.1f}x"),
    ),
)


#: Fig. 3's value size: the paper's 512 B pairs.
_FIG3_VALUE_BYTES = 512


def _fig3_cell(
    device: str,
    occupancy: str,
    kvps: Dict[str, int],
    n_ops: int,
    blocks_per_plane: int,
) -> Dict[str, float]:
    """Mean QD1 read then write (update) latency at one occupancy."""
    base = WorkloadSpec(
        n_ops=n_ops,
        op="read",
        pattern=Pattern.UNIFORM,
        population=kvps[occupancy],
        key_scheme=FILL_SCHEME,
        value_bytes=_FIG3_VALUE_BYTES,
        seed=23,
    )
    with build_rig(DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane)) as rig:
        rig.prime(kvps[occupancy], _FIG3_VALUE_BYTES, FILL_SCHEME)
        adapter = rig.adapter_for(_FIG3_VALUE_BYTES)
        return {
            f"{name}_us": run_phase(
                rig, f"fig3.{device}.{name}", replace(base, op=op), 1, adapter
            ).latency.mean()
            for name, op in (("read", "read"), ("write", "update"))
        }


def _fig3_occupancies(high_fraction: float, blocks_per_plane: int) -> Dict[str, int]:
    """Low/high pair counts as fractions of the device's KVP limit (low:
    0.05 %, at least 1,000 pairs)."""
    with build_rig("kvssd", lab_geometry(blocks_per_plane)) as probe:
        physical_max = probe.pair_capacity(FILL_SCHEME.key_bytes, _FIG3_VALUE_BYTES)
        max_kvps = min(probe.device.max_kvps, int(physical_max * 0.9))
    return {
        "low": max(1000, int(max_kvps * 0.0005)),
        "high": int(max_kvps * high_fraction),
    }


def fig3_index_occupancy(
    high_fraction: float = 0.95,
    n_ops: int = 1500,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Fig. 3: latency at low vs high index occupancy, KV vs block.

    The paper fills 1.53 M (low) and 3 B (high) 512 B pairs on a 3.84 TB
    drive; the defaults match those *fractions of the device's KVP limit*
    on the scaled geometry.
    """
    kvps = _fig3_occupancies(high_fraction, blocks_per_plane)
    cells = grid(
        "fig3",
        _fig3_cell,
        {"device": DIRECT_SYSTEMS, "occupancy": kvps},
        dict(kvps=kvps, n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    values = {
        "low_kvps": kvps["low"],
        "high_kvps": kvps["high"],
        **named(cells, ("device", "occupancy"), "{device}.{occupancy}"),
    }
    return FIG3.result(values, device=DIRECT_SYSTEMS, occupancy=kvps,
                       op=("read", "write"))


# ---------------------------------------------------------------------------
# Figure 4 — value size x concurrency latency ratios
# ---------------------------------------------------------------------------


FIG4 = Layout(
    # KV/block mean-latency ratios; <1 favors the KV-SSD.
    derived={"ratio.{size}.qd{queue_depth}.{op}": ratio(
        "kv.{size}.qd{queue_depth}.{op}_us",
        "block.{size}.qd{queue_depth}.{op}_us")},
    sections=(
        Table(("size",), {
            "value": _kib,
            "w QD{queue_depth}": "ratio.{size}.qd{queue_depth}.write",
            "r QD{queue_depth}": "ratio.{size}.qd{queue_depth}.read",
        }),
        "KV/block mean-latency ratios; <1 favors the KV-SSD",
    ),
)


def fig4_value_size_concurrency(
    value_sizes: Sequence[int] = (512, 4 * KIB, 16 * KIB, 32 * KIB, 64 * KIB),
    queue_depths: Sequence[int] = (1, 64),
    n_ops: int = 1200,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Result:
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
    values = named(cells, ("queue_depth", "size", "device"),
                   "{device}.{size}.qd{queue_depth}")
    return FIG4.result(values, op=("read", "write"), queue_depth=queue_depths,
                       size=value_sizes)


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
    with build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        **_AMPLE_INDEX[device],
    ) as rig:
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
            f"{name}_us": run_phase(
                rig,
                f"fig4.{device}.{name}.{size}.qd{queue_depth}",
                replace(base, op=op, seed=seed),
                queue_depth,
                adapter,
            ).latency.mean()
            for name, op, seed in (("write", "update", 31), ("read", "read", 37))
        }


# ---------------------------------------------------------------------------
# Figure 5 — write bandwidth vs value size (packing zig-zag)
# ---------------------------------------------------------------------------


FIG5 = Layout(
    # KV bandwidth steps at the page boundaries: past one page (24 -> 25
    # KiB), back up toward two (25 -> 48 KiB), past two (48 -> 49 KiB).
    derived={
        "kv.25600_over_24576": ratio("kv.25600.mib_s", "kv.24576.mib_s"),
        "kv.49152_over_25600": ratio("kv.49152.mib_s", "kv.25600.mib_s"),
        "kv.50176_over_49152": ratio("kv.50176.mib_s", "kv.49152.mib_s"),
        "block.max_step": lambda r: max((
            abs(r[f"block.{b}.mib_s"] / r[f"block.{a}.mib_s"] - 1.0)
            for a, b in zip(r.axes["size"], r.axes["size"][1:])
        ), default=None),
    },
    sections=(Table(("size",), {
        "value": _kib, "KV MiB/s": "kv.{size}.mib_s",
        "block MiB/s": "block.{size}.mib_s", "fragments": "kv.{size}.fragments",
    }),),
)


def fig5_packing_bandwidth(
    value_sizes: Sequence[int] = tuple(
        kib * KIB for kib in (4, 8, 16, 20, 24, 25, 28, 32, 40, 48, 49, 56, 64)
    ),
    n_ops: int = 800,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Fig. 5: write bandwidth sweep (QD32) across the page-boundary sizes.

    KV-SSD dips just past each multiple of the usable page area (~24.5
    KiB: values of 25 KiB, 49 KiB, ...) where blobs start splitting; the
    block device stays smooth.
    """
    cells = grid(
        "fig5",
        _fig5_cell,
        {"size": value_sizes, "device": DIRECT_SYSTEMS},
        dict(n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    values = named(cells, ("size", "device"), "{device}.{size}.mib_s")
    page_bytes = lab_geometry(blocks_per_plane).page_bytes
    for size in value_sizes:
        # Fragments per blob on the KV side (the model's dip explanation).
        values[f"kv.{size}.fragments"] = len(
            layout_blob(
                PAPER_KEY_BYTES, size, page_bytes, KVSSDConfig()
            ).fragments
        )
    return FIG5.result(values, size=value_sizes)


def _fig5_cell(device: str, size: int, n_ops: int, blocks_per_plane: int) -> float:
    """Sequential-insert bandwidth (MiB/s) of ``n_ops`` ``size``-byte values."""
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=PAPER_SCHEME,
        value_bytes=size,
        seed=41,
    )
    with build_rig(DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane)) as rig:
        run = run_phase(
            rig, f"fig5.{device}.{size}", spec, 32, rig.adapter_for(size),
            drain=False,
        )
    return run.bandwidth.overall_mib_per_sec()


# ---------------------------------------------------------------------------
# Figure 6 — foreground GC under random updates at 80% fill
# ---------------------------------------------------------------------------


def _fig6_lines(r: Result) -> str:
    """A line per scenario: trough, GC, stall and tails, then the
    sparkline of its update-phase bandwidth windows."""
    return "\n".join(
        f"{s:<16} trough {r[s + '.trough_ratio']:5.2f}  "
        f"fgGC {r[s + '.foreground_gc_runs']:4d}  "
        f"WAF {r[s + '.waf']:5.2f}  "
        f"stall {r[s + '.stall_ms']:8.1f}ms  "
        f"p99 {r[s + '.p99_us'] / 1000.0:7.1f}ms  "
        f"p999 {r[s + '.p999_us'] / 1000.0:7.1f}ms  "
        f"{sparkline(r[s + '.series'][:48])}"
        for s in r.axes["scenario"]
    )


FIG6 = Layout(
    sections=(_fig6_lines,),
)


#: Fig. 6's device: 4 blocks a plane, filled to 80 % with 4 KiB values.
_FIG6_BLOCKS_PER_PLANE = 4
_FIG6_FILL_FRACTION = 0.8
_FIG6_VALUE_BYTES = 4 * KIB


def _fig6_fill_kvps() -> int:
    """Pair count that fills 80 % of the page capacity.

    "80% full" is meant physically: 80% of the device's page capacity,
    with allocation-stream/GC margin excluded.
    """
    with build_rig("kvssd", lab_geometry(_FIG6_BLOCKS_PER_PLANE)) as probe:
        capacity = probe.pair_capacity(
            PAPER_SCHEME.key_bytes, _FIG6_VALUE_BYTES,
            reserve_blocks=probe.device.config.stream_width + 16,
        )
    return int(capacity * _FIG6_FILL_FRACTION)


#: Fig. 6 scenario -> (system, update pattern).
_FIG6_SCENARIOS = {
    "kv-uniform": ("kvssd", Pattern.UNIFORM),
    "kv-window": ("kvssd", Pattern.SLIDING_WINDOW),
    "rocksdb-uniform": ("rocksdb", Pattern.UNIFORM),
}


def _fig6_scenario_cell(scenario: str, fill_kvps: int) -> Dict[str, object]:
    """One Fig. 6 scenario: prime the fill, then sustained updates at
    QD16, bandwidth in 200 ms windows."""
    system, pattern = _FIG6_SCENARIOS[scenario]
    with build_rig(system, lab_geometry(_FIG6_BLOCKS_PER_PLANE)) as rig:
        # Enough updates to exhaust free space and enter the foreground-GC
        # regime; the measured phase is additionally duration-bounded
        # (stop_after_us), because inside the collapse the device serves
        # updates arbitrarily slowly — exactly the paper's point.
        n_updates = int(fill_kvps * 0.55)
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
                rig.device.user_capacity_bytes * _FIG6_FILL_FRACTION * 0.45
            )
            population = min(
                n_updates, fs_budget // (scheme.key_bytes + _FIG6_VALUE_BYTES)
            )
        rig.prime(population, _FIG6_VALUE_BYTES, scheme)
        spec = WorkloadSpec(
            n_ops=n_updates,
            op="update",
            pattern=pattern,
            population=population,
            key_scheme=scheme,
            value_bytes=_FIG6_VALUE_BYTES,
            seed=47,
        )
        run = run_phase(
            rig, f"fig6.{scenario}", spec, 16, drain=False,
            bandwidth_window_us=200_000.0, stop_after_us=45e6,
        )
    # The runner captured the DeviceStats delta for the measured phase;
    # both personalities report through the same struct, so the two
    # scenario branches need no per-device counter reads.
    series = run.bandwidth.series_mib_per_sec()
    windows = [w for w in series if w > 0.0] or [0.0]
    latency = run.latency.summary()
    return {
        **run.device_stats.summary(),
        "foreground_gc_runs": run.device_stats.foreground_gc_runs,
        "p99_us": latency.p99,
        "p999_us": latency.p999,
        "series": series,
        "series_len": len(series),
        "series_min": min(series),
        "series_max": max(series),
        # Worst window over the first (1.0 = no collapse).
        "trough_ratio": min(windows) / (windows[0] or 1.0),
    }


def fig6_foreground_gc(
    scenarios: Sequence[str] = tuple(_FIG6_SCENARIOS),
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Fig. 6: fill 80% of the device, then update everything randomly.

    The KV scenarios (uniform and sliding-window pseudo-random) collapse
    into foreground GC once over-provisioning is exhausted; RocksDB on
    block (whose compaction TRIMs whole files) does not.
    """
    for scenario in scenarios:
        if scenario not in _FIG6_SCENARIOS:
            raise ConfigurationError(f"unknown fig6 scenario {scenario!r}")
    cells = grid(
        "fig6",
        _fig6_scenario_cell,
        {"scenario": scenarios},
        dict(fill_kvps=_fig6_fill_kvps()),
        runner,
    )
    return FIG6.result(named(cells, ("scenario",), "{scenario}"),
                       scenario=scenarios)


# ---------------------------------------------------------------------------
# Figure 7 — space amplification vs value size
# ---------------------------------------------------------------------------


FIG7 = Layout(
    derived={
        "max_kvps_billions": lambda r: r["max_kvps_full_scale"] / 1e9,
        "kvssd.worst_analytic_gap": lambda r: max(
            abs(r[f"kvssd.{size}.sa"] / r[f"kvssd.{size}.analytic"] - 1.0)
            for size in r.axes["size"]
        ),
    },
    sections=(
        Table(("size",), {
            "value": label("{size}B"), "KV-SSD": "kvssd.{size}.sa",
            "KV analytic": "kvssd.{size}.analytic",
            "Aerospike": "aerospike.{size}.sa", "RocksDB": "rocksdb.sa",
        }),
        lambda r: f"max KVPs at 3.84 TB: {r['max_kvps_billions']:.2f}B",
    ),
)

#: RocksDB's worst-case leveled space amplification.  Dong et al.
#: (CIDR'17, the paper's [12]): with a level size ratio of 10, obsolete
#: versions awaiting compaction are bounded by ~1/9 of the live data —
#: a property of the level structure, independent of value size.
_ROCKSDB_SA = 1.0 + 1.0 / 9.0


def _fig7_cell(
    size: int, kvps: int, blocks_per_plane: int
) -> Dict[str, float]:
    """One value size: measured KV-SSD, analytic KV, and Aerospike SA."""
    geometry = lab_geometry(blocks_per_plane)
    with build_rig("kvssd", geometry) as kv_rig:
        kv_rig.prime(min(kvps, kv_rig.device.max_kvps - 1), size, FILL_SCHEME)
        kv_sa = kv_rig.device.stats.amplification()
    with build_rig("aerospike", geometry) as hash_rig:
        hash_rig.prime(kvps, size, FILL_SCHEME)
        hash_sa = hash_rig.store.space_amplification()
    return {
        f"kvssd.{size}.sa": kv_sa,
        f"kvssd.{size}.analytic": space_amplification(
            PAPER_SCHEME.key_bytes, size, geometry.page_bytes, KVSSDConfig()
        ),
        f"aerospike.{size}.sa": hash_sa,
    }


def fig7_space_amplification(
    value_sizes: Sequence[int] = (50, 100, 200, 500, 1024, 2048, 4096),
    kvps: int = 20000,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Result:
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
    values = {
        "max_kvps_full_scale": int(KVSSDModel.max_kvps_at_capacity(3.84e12)),
        "rocksdb.sa": _ROCKSDB_SA,
    }
    for cell in cells.values():
        values.update(cell)
    return FIG7.result(values, size=value_sizes)


# ---------------------------------------------------------------------------
# Figure 8 — key size vs bandwidth (NVMe command cliff)
# ---------------------------------------------------------------------------


def _cliff_ratio(r: Result, mode: str) -> float:
    """Bandwidth just past the 16 B inline key limit over bandwidth at it."""
    at_limit = max(k for k in r.axes["key_bytes"] if k <= 16)
    past = min(k for k in r.axes["key_bytes"] if k > 16)
    return r[f"{mode}.k{past}.mib_s"] / r[f"{mode}.k{at_limit}.mib_s"]


FIG8 = Layout(
    derived={
        "cliff_ratio.{mode}": _cliff_ratio,
        "async.k8_to_k16_step": lambda r: abs(
            r["async.k16.mib_s"] / r["async.k8.mib_s"] - 1.0),
    },
    sections=(
        Table(("key_bytes",), {
            "key": label("{key_bytes}B"), "cmds": "commands.k{key_bytes}",
            "{mode} MiB/s": "{mode}.k{key_bytes}.mib_s",
        }),
        lambda r: f"cliff past 16B: async {r['cliff_ratio.async']:.2f}x",
    ),
)


def _fig8_cell(
    key_bytes: int, mode: str, n_ops: int, blocks_per_plane: int
) -> float:
    """One (key size, sync/async) bandwidth cell of 1 KiB values; sync
    runs at QD1, async at QD32."""
    queue_depth = 1 if mode == "sync" else 32
    # Build a scheme whose keys are exactly key_bytes long; one that could
    # not name n_ops keys drops its prefix (4 B: "0000"..., 10,000 names).
    digits = min(12, key_bytes - 1)
    if n_ops > 10 ** digits:
        digits = key_bytes
    scheme = KeyScheme(prefix=b"k" * (key_bytes - digits), digits=digits)
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=scheme,
        value_bytes=1024,
        seed=53,
    )
    with build_rig(
        "kvssd", lab_geometry(blocks_per_plane), sync=mode == "sync"
    ) as rig:
        run = run_phase(
            rig, f"fig8.{mode}.k{key_bytes}", spec, queue_depth, drain=False
        )
    return run.bandwidth.overall_mib_per_sec()


def fig8_key_size_bandwidth(
    key_sizes: Sequence[int] = (4, 8, 16, 24, 64, 128, 255),
    n_ops: int = 1200,
    blocks_per_plane: int = 24,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Fig. 8: bandwidth vs key size; keys >16 B need a second command.

    Every cell inserts ``n_ops`` distinct keys of exactly its key size,
    so the smallest size bounds ``n_ops``: ``k``-byte keys name at most
    ``10**k`` pairs.
    """
    smallest = min(key_sizes)
    if n_ops > 10 ** smallest:
        raise ConfigurationError(
            f"fig8: {smallest} B keys name at most {10 ** smallest:,} pairs, "
            f"so n_ops must be <= {10 ** smallest:,} (got {n_ops:,})"
        )
    modes = ("sync", "async")
    cells = grid(
        "fig8",
        _fig8_cell,
        {"key_bytes": key_sizes, "mode": modes},
        dict(n_ops=n_ops, blocks_per_plane=blocks_per_plane),
        runner,
    )
    values = named(cells, ("key_bytes", "mode"), "{mode}.k{key_bytes}.mib_s")
    values.update({f"commands.k{k}": commands_for_key(k) for k in key_sizes})
    return FIG8.result(values, mode=modes, key_bytes=key_sizes)


# ---------------------------------------------------------------------------
# Ablations — the mechanisms the paper hypothesizes, resized
#
# The paper explains its observations by mechanisms it cannot toggle on a
# shipped drive; here each is a config field, so each can be resized to
# show it carries the effect.  The closed-form model's own agreement with
# simulation is pinned by ``tests/test_model.py``.
# ---------------------------------------------------------------------------


#: Each resized mechanism (the axis of its settings) -> what it drives.
_EFFECTS = {
    "min_alloc": "min_alloc_bytes.space_amp_50b",
    "index_dram": "index_dram.write_degradation",
    "stream_width": "stream_width.insert_us",
    "page_reserve": "page_reserve_bytes.first_split_kib",
}

ABLATIONS = Layout(
    derived={
        "min_alloc_bytes.space_amp_50b.256_over_1024": ratio(
            "min_alloc_bytes.space_amp_50b.256",
            "min_alloc_bytes.space_amp_50b.1024"),
        "stream_width.insert_us.16_over_4": ratio(
            "stream_width.insert_us.16", "stream_width.insert_us.4"),
        "page_reserve_bytes.first_split_kib.512_minus_7680": lambda r: (
            r["page_reserve_bytes.first_split_kib.512"]
            - r["page_reserve_bytes.first_split_kib.7680"]),
    },
    sections=tuple(
        Table((axis,), {"setting": label(f"{{{axis}}}"), "value": f"{name}.{{{axis}}}"},
              title=name.replace(".", " -> "))
        for axis, name in _EFFECTS.items()
    ),
)


#: The ablations' device: 8 blocks a plane.
_ABLATION_BLOCKS_PER_PLANE = 8


def _ablation_stream_cell(width: int, n_ops: int) -> float:
    """Mean QD64 4 KiB insert latency (us) with ``width`` open write blocks."""
    spec = WorkloadSpec(
        n_ops=n_ops,
        op="insert",
        pattern=Pattern.SEQUENTIAL,
        key_scheme=PAPER_SCHEME,
        value_bytes=4 * KIB,
        seed=61,
    )
    with build_rig(
        "kvssd", lab_geometry(_ABLATION_BLOCKS_PER_PLANE),
        config=KVSSDConfig(stream_width=width),
    ) as rig:
        run = run_phase(rig, f"ablations.width{width}", spec, 64, drain=False)
    return run.latency.mean()


def ablations(
    stream_widths: Sequence[int] = (4, 8, 16),
    n_ops: int = 800,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Resize each hypothesized mechanism; report what it drives.

    50 B-value space amplification per minimum allocation (Fig. 7) and
    the first value size whose blob splits per page reserve (Fig. 5),
    both closed form; the model's store latency at 90% of the KVP limit
    over an empty device's per index DRAM size (Fig. 3); and, simulated,
    mean insert latency per stream width in dies (Fig. 4).
    """
    geometry = lab_geometry(_ABLATION_BLOCKS_PER_PLANE)
    page_bytes = geometry.page_bytes
    drams = {"scaled": None, "4MiB": 4 * MIB, "64MiB": 64 * MIB}
    min_allocs, reserves = (256, 512, 1024), (512, 4096, 7680)
    values: Dict[str, Any] = {}
    for min_alloc in min_allocs:
        values[f"min_alloc_bytes.space_amp_50b.{min_alloc}"] = space_amplification(
            PAPER_KEY_BYTES, 50, page_bytes, KVSSDConfig(min_alloc_bytes=min_alloc),
        )
    for setting, dram in drams.items():
        model = KVSSDModel(geometry, KVSSDConfig(index_dram_bytes=dram))
        kvps = int(model.max_kvps() * 0.9)
        values[f"index_dram.write_degradation.{setting}"] = (
            model.store_latency_us(PAPER_KEY_BYTES, 512, kvps)
            / model.store_latency_us(PAPER_KEY_BYTES, 512, 0)
        )
    values.update(named(grid(
        "ablations",
        _ablation_stream_cell,
        {"width": stream_widths},
        dict(n_ops=n_ops),
        runner,
    ), ("width",), "stream_width.insert_us.{width}"))
    for reserve in reserves:
        values[f"page_reserve_bytes.first_split_kib.{reserve}"] = next(
            kib for kib in range(1, 65)
            if layout_blob(
                PAPER_KEY_BYTES, kib * KIB, page_bytes,
                KVSSDConfig(page_reserved_bytes=reserve),
            ).is_split
        )
    return ABLATIONS.result(values, min_alloc=min_allocs, index_dram=drams,
                            stream_width=stream_widths, page_reserve=reserves)


# ---------------------------------------------------------------------------
# Cluster figures — beyond the paper's single device
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
    """One cluster run under the default two-tenant YCSB A+B mix, 16
    ring partitions per tenant."""
    spec = ClusterSpec(
        tenants=(
            TenantSpec(name="ta", workload="A", n_ops=n_ops,
                       population=population, seed=11),
            TenantSpec(name="tb", workload="B", n_ops=n_ops,
                       population=population, seed=12),
        ),
        partitions=16,
        **spec_fields,
    )
    return run_cluster(spec, runner)


def _scaling_ratio(r: Result) -> float:
    """Throughput gain from the smallest to the largest cluster."""
    low = r[f"s{min(r.axes['shards'])}.throughput_kops"]
    high = r[f"s{max(r.axes['shards'])}.throughput_kops"]
    return high / low if low > 0 else 0.0


CLUSTER_SCALING = Layout(
    derived={
        "scaling_ratio": _scaling_ratio,
        "worst_doubling_gain": lambda r: min(
            r[f"s{b}.throughput_kops"] / r[f"s{a}.throughput_kops"]
            for a, b in zip(r.axes["shards"], r.axes["shards"][1:])
        ),
        "worst_router_share": lambda r: max(
            r[f"s{shards}.router_share"] for shards in r.axes["shards"]),
    },
    sections=(
        Table(("shards",), {
            "shards": label("{shards}"), "kops": "s{shards}.throughput_kops",
            "kops/shard": "s{shards}.per_shard_kops",
            "router share": ("s{shards}.router_share", rounded(4)),
            "ops": "s{shards}.completed_ops",
        }, title="throughput vs shard count"),
        lambda r: (f"scaling {min(r.axes['shards'])}->{max(r.axes['shards'])} "
                   f"shards: {r['scaling_ratio']:.2f}x"),
    ),
    sep="\n",
)


def cluster_shard_scaling(
    n_ops: int = 300, runner: Optional[SweepRunner] = None
) -> Result:
    """Cluster throughput vs shard count (2, 4, 8; fixed tenant mix, R=2).

    The same multi-tenant YCSB stream is routed over progressively more
    shards; throughput is completed device operations per millisecond of
    makespan (the slowest shard bounds the cluster).
    """
    shard_counts = (2, 4, 8)
    values: Dict[str, Any] = {}
    for shards in shard_counts:
        cluster = _run_cluster(
            n_ops, 900, runner, shards=shards, replication=2, seed=21,
            verify=False,
        )
        values.update({
            f"s{shards}.throughput_kops": cluster.throughput_kops(),
            f"s{shards}.per_shard_kops": cluster.throughput_kops() / shards,
            f"s{shards}.router_share": cluster.router_share(),
            f"s{shards}.completed_ops": cluster.completed_ops,
            f"s{shards}.waf": cluster.device_stats().write_amplification(),
        })
    return CLUSTER_SCALING.result(values, shards=shard_counts)


def _rebalance_inflation(r: Result) -> float:
    """Rebalance-window p99 over the pre-fault p99 (>= 1 expected)."""
    pre = r.values.get("pre.p99", 0.0)
    return r.values.get("rebalance.p99", 0.0) / pre if pre > 0 else 0.0


CLUSTER_REBALANCE = Layout(
    derived={
        "tail_inflation.p99": _rebalance_inflation,
        "lost_any_write": lambda r: 1 - r["zero_lost_writes"],
    },
    sections=(
        Table(("phase",), {
            "phase": label("{phase}"), "ops": ("{phase}.count", int),
            "mean us": ("{phase}.mean", _R1), "p99 us": ("{phase}.p99", _R1),
            "p999 us": ("{phase}.p999", _R1),
        }, title="tail latency through a rebalance window"),
        lambda r: (
            "p99 inflation during rebalance: "
            f"{r['tail_inflation.p99']:.2f}x  (drain {r['drain_ops']} ops, "
            f"router share {r['router_share']:.4f}, {r['trace_spans']} spans, "
            f"zero-lost={bool(r['zero_lost_writes'])})"
        ),
    ),
    sep="\n",
)


def cluster_rebalance_tail(
    n_ops: int = 300, runner: Optional[SweepRunner] = None
) -> Result:
    """p99/p999 before, during, and after a fault-driven rebalance.

    Shard 1 of 4 (R=2) is degraded to read-only halfway through the
    two-tenant stream through the real fault machinery; the router
    drains its ranges to replicas while client traffic continues.
    Per-phase latency shows the rebalance window's tail cost: p99/p999
    are the worst shard's (cluster tail), the mean is count-weighted
    across shards.  Runs with span tracing on, so router-vs-device
    attribution rides along.
    """
    cluster = _run_cluster(
        n_ops, 800, runner,
        degrade=(DegradeEvent(shard=1, at_op=n_ops),),
        shards=4, replication=2, seed=23, trace=True, verify=True,
    )
    values = {
        "drain_ops": cluster.drain_ops,
        "zero_lost_writes": int(cluster.zero_lost_writes),
        "verify_checked": cluster.verify_checked,
        "router_share": cluster.router_share(),
        "trace_spans": sum(s.trace_spans for s in cluster.shards),
        "waf": cluster.device_stats().write_amplification(),
    }
    phases = []
    for phase in ("pre", "rebalance", "post", "drain"):
        count = 0
        weighted_mean = 0.0
        for shard in cluster.shards:
            summary = shard.latency.get(phase)
            if summary is not None:
                count += summary.count
                weighted_mean += summary.mean * summary.count
        if count == 0:
            continue
        p99, p999 = cluster.tail(phase)
        phases.append(phase)
        values.update({
            f"{phase}.count": float(count),
            f"{phase}.mean": weighted_mean / count,
            f"{phase}.p99": p99,
            f"{phase}.p999": p999,
        })
    return CLUSTER_REBALANCE.result(values, phase=phases,
                                    stat=("count", "mean", "p99", "p999"))


def _write_cost(r: Result, factor: int) -> float:
    """Flash programs at R=``factor`` relative to R=1 (0 without R=1)."""
    base = r.values.get("r1.flash_programs", 0)
    return r[f"r{factor}.flash_programs"] / base if base else 0.0


CLUSTER_REPLICATION = Layout(
    derived={
        "r{factor}.write_cost": _write_cost,
        "flash_programs.r3_minus_r2": lambda r: (
            r["r3.flash_programs"] - r["r2.flash_programs"]),
    },
    sections=(Table(("factor",), {
        "R": label("{factor}"), "kops": "r{factor}.throughput_kops",
        "routed ops": "r{factor}.routed_ops",
        "flash programs": "r{factor}.flash_programs",
        "write cost": "r{factor}.write_cost",
        "read p99 us": ("r{factor}.read_p99_us", _R1),
    }, title="replication-factor cost"),),
)


def cluster_replication_cost(
    n_ops: int = 300, runner: Optional[SweepRunner] = None
) -> Result:
    """Write-all fan-out cost as the replication factor grows.

    Same stream, same 4 shards, R swept over 1, 2, 3: routed device
    operations and flash programs grow with R while read tails stay flat
    (read-one).
    """
    factors = (1, 2, 3)
    values: Dict[str, Any] = {}
    for factor in factors:
        cluster = _run_cluster(
            n_ops, 900, runner, shards=4, replication=factor, seed=29,
            verify=False,
        )
        values.update({
            f"r{factor}.throughput_kops": cluster.throughput_kops(),
            f"r{factor}.routed_ops": cluster.routed_ops,
            f"r{factor}.flash_programs": cluster.device_stats().flash_programs,
            f"r{factor}.read_p99_us": cluster.tail("pre")[0],
        })
    return CLUSTER_REPLICATION.result(values, factor=factors)


# ---------------------------------------------------------------------------
# Replay figures — trace-driven, time-varying workloads
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
    """The latency/ops/WAF fields every replay cell reports."""
    summary = run.latency.summary()
    return {
        "mean_us": summary.mean,
        "p99_us": summary.p99,
        "p999_us": summary.p999,
        "completed": run.completed_ops,
        "failed": run.failed_ops,
        "waf": run.device_stats.write_amplification(),
    }


def _replay_rotation_cell(
    device: str,
    rotate_every: int,
    n_ops: int,
    population: int,
    working_set: int,
    blocks_per_plane: int,
) -> Dict[str, object]:
    """One device under one churn schedule: prefill 4 KiB pairs, then
    replay at QD8.

    Both devices replay the *same* churn records (same keys, same order).
    """
    spec = ChurnSpec(
        n_ops=n_ops,
        population=population,
        working_set=working_set,
        rotate_every_ops=rotate_every,
        value_bytes=4 * KIB,
        key_scheme=FILL_SCHEME,
        seed=17,
    )
    workload = TraceWorkload(
        tuple(generate_churn(spec)), key_scheme=FILL_SCHEME
    )
    with build_rig(
        DIRECT_SYSTEMS[device], lab_geometry(blocks_per_plane),
        **_AMPLE_INDEX[device],
    ) as rig:
        rig.prime(population, 4 * KIB, FILL_SCHEME)
        return _replay_cell(run_phase(
            rig, f"replay.rot.{device}.{rotate_every}", workload.operations(),
            8, rig.adapter_for(4 * KIB),
        ))


def _rotation_penalty(r: Result, device: str) -> float:
    """Fastest-churn p99 over the static (rotate=0) p99."""
    static = r.values.get(f"{device}.rot0.p99_us", 0.0)
    fastest = min(rotate for rotate in r.axes["rotate_every"] if rotate > 0)
    return r[f"{device}.rot{fastest}.p99_us"] / static if static > 0 else 0.0


_ROT = "{device}.rot{rotate_every}"

REPLAY_ROTATION = Layout(
    derived={
        "{device}.rotation_penalty": _rotation_penalty,
        "worst_completed_fraction": lambda r: min(
            r[name] for name, _ in spell(f"{_ROT}.completed", r.axes)
        ) / r["n_ops"],
    },
    sections=(
        Table(("device", "rotate_every"), {
            "device": label("{device}"),
            "rotate every": lambda r, c: c["rotate_every"] or "static",
            "mean us": (f"{_ROT}.mean_us", _R1), "p99 us": (f"{_ROT}.p99_us", _R1),
            "p999 us": (f"{_ROT}.p999_us", _R1), "WAF": f"{_ROT}.waf",
            "ops": f"{_ROT}.completed",
        }, title="working-set rotation: KV vs block"),
        lambda r: "\n".join(
            f"{device} rotation p99 penalty: "
            f"{r[f'{device}.rotation_penalty']:.2f}x"
            for device in r.axes["device"]
        ),
    ),
    sep="\n",
)


def replay_rotation(
    rotate_every: Sequence[int] = (0, 500, 100),
    n_ops: int = 2000,
    population: int = 4096,
    working_set: int = 256,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
    """Replay figure 1: churn replay, KV vs block.

    Both devices replay byte-identical churn traces: uniform read/update
    traffic over a ``working_set``-key window that jumps wholesale every
    ``rotate_every`` ops (0 = pinned window, the stationary control).
    The block stack's placement rewards stable locality; the KV-FTL's
    hash index never looked at locality in the first place — rotation is
    where that difference should surface, or be shown not to matter.
    """
    devices = tuple(DIRECT_SYSTEMS)
    cells = grid(
        "replay_rotation",
        _replay_rotation_cell,
        {"device": devices, "rotate_every": rotate_every},
        dict(n_ops=n_ops, population=population, working_set=working_set,
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    values = {"n_ops": n_ops,
              **named(cells, ("device", "rotate_every"), _ROT)}
    return REPLAY_ROTATION.result(values, device=devices,
                                  rotate_every=rotate_every)


def _replay_mix_cell(
    variant: str,
    n_ops: int,
    population: int,
    ttl_ops: int,
    blocks_per_plane: int,
) -> Dict[str, object]:
    """One mix variant on a fresh KV rig: plain / ttl / ttl+scan.

    The base stream is a point read/update mix of 4 KiB values over a
    prefilled population, replayed at QD8; the ``ttl`` variants merge in
    an expiry stream (its own key prefix, 8 ms TTLs, inserts re-arming
    them, deletes materialized at expiry); ``ttl+scan`` additionally
    turns a quarter of the base ops into 16-record prefix scans through
    the YCSB driver's emulated-scan path — the iterator buckets' first
    sustained exercise.
    """
    with build_rig(
        "kvssd", lab_geometry(blocks_per_plane), **_AMPLE_INDEX["kv"]
    ) as rig:
        scheme = FILL_SCHEME
        rig.prime(population, 4 * KIB, scheme)
        base = ScanMixSpec(
            n_ops=n_ops,
            population=population,
            scan_fraction=0.25 if variant == "ttl+scan" else 0.0,
            key_scheme=scheme,
            seed=19,
        )
        streams = [generate_scan_mix(base)]
        if variant in ("ttl", "ttl+scan"):
            expiry = ExpirySpec(
                n_ops=ttl_ops,
                population=max(1, population // 4),
                ttl_us=8000.0,
                interarrival_us=(n_ops * 100.0) / ttl_ops,
                key_scheme=_REPLAY_TTL_SCHEME,
                seed=20,
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
                value_bytes=4 * KIB,
                scan_length=SCAN_MIX_LENGTH,
                seed=19,
            ),
        )
        run = run_phase(
            rig, f"replay.mix.{variant}", workload.operations(), 8, driver
        )
        read_summary = run.latency.summary("read")
        buckets = rig.device.iterators
        return {
            **_replay_cell(run),
            "read_p99_us": read_summary.p99,
            "read_p999_us": read_summary.p999,
            "deletes": run.latency.count("delete"),
            "scans": driver.scans_run,
            "bucket_keys": buckets.total_keys,
            "bucket_count": len(buckets.buckets()),
            "bucket_page_writes": buckets.bucket_page_writes,
        }


def _mix_inflation(r: Result, variant: str) -> Optional[float]:
    """A variant's read p99 over the plain point-op baseline's."""
    if variant == "plain":
        return None
    base = r.values.get("plain.read_p99_us", 0.0)
    return r[f"{variant}.read_p99_us"] / base if base > 0 else 0.0


def _mix_verdict(r: Result) -> Optional[str]:
    scan = next((v for v in r.axes["variant"] if "scan" in v), None)
    if scan is None:
        return None
    return (f"read-tail inflation ({scan} vs plain): "
            f"{r[f'tail_inflation.{scan}']:.2f}x")


REPLAY_MIX = Layout(
    derived={
        "tail_inflation.{variant}": _mix_inflation,
        "ttl_variants.fewest_deletes": lambda r: min(
            r["ttl.deletes"], r["ttl+scan.deletes"]),
    },
    sections=(
        Table(("variant",), {
            "variant": label("{variant}"),
            "read p99": ("{variant}.read_p99_us", _R1),
            "read p999": ("{variant}.read_p999_us", _R1),
            "ops": "{variant}.completed", "fail": "{variant}.failed",
            "deletes": "{variant}.deletes", "scans": "{variant}.scans",
            "bucket keys": "{variant}.bucket_keys",
            "bucket pages": "{variant}.bucket_page_writes",
        }, title="TTL + scan mix: read-tail cost"),
        _mix_verdict,
    ),
    sep="\n",
)


def replay_ttl_scan_mix(
    variants: Sequence[str] = ("plain", "ttl", "ttl+scan"),
    n_ops: int = 1500,
    population: int = 2048,
    ttl_ops: int = 600,
    blocks_per_plane: int = 16,
    runner: Optional[SweepRunner] = None,
) -> Result:
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
             blocks_per_plane=blocks_per_plane),
        runner,
    )
    return REPLAY_MIX.result(named(cells, ("variant",), "{variant}"),
                             variant=variants)
