"""The experiment registry: every figure the repo can regenerate, once.

:data:`EXPERIMENTS` is the only list of experiments in the tree, and a
row's :class:`Claim` tuple the only place a paper-reported number is
typed.  A row has one scale: its function's *defaults*, what ``repro
<row>`` runs with no flags.  Tier-1 runs each row once there, checks its
claims, diffs its printed text against EXPERIMENTS.md
(``tests/test_paper_claims.py``) and pins its event count and every
value (``tests/test_golden_figures.py``).  The CLI selects rows by name
or group and prints ``result.render()`` and
:meth:`Experiment.claims_table`.  A row's function returns the one
result shape of :mod:`repro.kvbench.report` — values by dotted name
plus the row's declared layout — and a claim names one of those values.
Adding an experiment is: write the ``fig*``-style function (returning
its values plus a :class:`~repro.kvbench.report.Layout` declaration),
add one row here with its claims, run ``pytest tests/test_golden_figures.py
tests/test_paper_claims.py --regen-golden`` once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.figures import (
    ablations,
    cluster_rebalance_tail,
    cluster_replication_cost,
    cluster_shard_scaling,
    fig2_end_to_end,
    fig3_index_occupancy,
    fig4_value_size_concurrency,
    fig5_packing_bandwidth,
    fig6_foreground_gc,
    fig7_space_amplification,
    fig8_key_size_bandwidth,
    replay_rotation,
    replay_ttl_scan_mix,
)
from repro.core.headline import headline_scalars
from repro.faults.run import run_fault_sweep
from repro.frontend.run import frontend_load_sweep
from repro.kvbench.report import Result, format_table
from repro.kvbench.ycsb_sweep import run_ycsb_sweep
from repro.trace.run import TraceScenario
from repro.units import KIB


@dataclass(frozen=True)
class Claim:
    """One paper finding as a scalar in a band: direction is a one-sided
    band on a ratio, a rough factor a two-sided one, a crossover a band on
    each side of it."""

    finding: str
    #: What the paper reports, verbatim enough to look up.
    paper: str
    #: The name of the measured value in the row's result.
    measure: str
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(
                f"claim {self.finding!r}: empty band [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`."""

    name: str
    #: ``paper`` rows are CLI commands by name (and make up ``repro all``);
    #: the other groups are one CLI command each, running all their rows.
    group: str
    #: Called as ``fn(runner=..., **kwargs)``; returns a
    #: :class:`~repro.kvbench.report.Result`.  Its defaults are the row's
    #: recorded scale; the CLI's ``--n-ops`` sets ``n_ops`` when it takes one.
    fn: Callable[..., Any]
    #: The findings this row reproduces (or, beyond the paper, states),
    #: checked at ``fn()``.
    claims: Tuple[Claim, ...] = ()
    #: The figure-shaped workload ``repro trace`` / ``repro sanitize``
    #: ``--fig <name>`` run; rows without one are not offered there.
    scenario: Optional[TraceScenario] = None

    def claims_table(self, result: Result) -> Tuple[str, bool]:
        """The ``finding | paper | measured | holds`` table for ``result``
        and whether every claim held."""
        rows, ok = [], True
        for claim in self.claims:
            # A value this run did not produce, or a non-finite one, is a
            # miss, whatever the band.
            measured = float(result.values.get(claim.measure, math.nan))
            held = math.isfinite(measured) and claim.lo <= measured <= claim.hi
            ok = ok and held
            rows.append([claim.finding, claim.paper, f"{measured:.3g}",
                         "yes" if held else "NO"])
        return format_table(["finding", "paper", "measured", "holds"], rows), ok


EXPERIMENTS: Dict[str, Experiment] = {
    row.name: row
    for row in (
        Experiment(
            "fig2", "paper", fig2_end_to_end,
            (
                Claim("KV seq/rand insert latency", "~equal (hashing erases order)",
                      "kvssd.seq_over_rand.insert", 0.8, 1.25),
                Claim("RocksDB/KV insert latency (rand)", "KV wins; up to 23.08x",
                      "rocksdb_over_kv.insert", 2.0),
                Claim("RocksDB/KV update latency (rand)", "KV wins",
                      "rocksdb_over_kv.update", 2.0),
                Claim("KV/RocksDB read latency (rand)", "KV suffers (>1)",
                      "kv_over_rocksdb.read", 1.2),
                Claim("Aerospike/KV update latency (rand)", "KV wins; up to 3.64x",
                      "aerospike_over_kv.update", 1.2),
                Claim("KV/Aerospike insert latency (rand)", "~1 or Aerospike faster",
                      "kv_over_aerospike.insert", 0.8, 1.25),
                Claim("host CPU reduction vs RocksDB (rand)",
                      "~13x avg (up to 0.92x less)", "cpu_reduction_vs_rocksdb", 5.0),
                Claim("CPU reduction vs Aerospike / vs RocksDB (rand)", "much smaller",
                      "cpu_reduction.aerospike_over_rocksdb", hi=1.0),
            ),
            TraceScenario("end-to-end latency, 4KiB mixed ops", queue_depth=1),
        ),
        Experiment(
            "fig3", "paper", fig3_index_occupancy,
            (
                Claim("KV write degradation high/low", "up to 16.4x",
                      "kv.write_degradation", 4.0),
                Claim("KV read degradation high/low", "up to 2x",
                      "kv.read_degradation", 1.5, 4.0),
                Claim("block write degradation", "~1x (flat)",
                      "block.write_degradation", hi=1.5),
                Claim("block read degradation", "~1x (flat)",
                      "block.read_degradation", hi=1.5),
                # Above Fig. 4's QD1 read band: occupancy must make the
                # read ratio worse, as the paper's extreme does.
                Claim("KV/block read latency at high occupancy", "up to 8.1x",
                      "kv_over_block.high.read", 2.5),
            ),
            TraceScenario("high-occupancy index pressure", fill_fraction=0.85,
                          queue_depth=1, blocks_per_plane=32),
        ),
        Experiment(
            "fig4", "paper", fig4_value_size_concurrency,
            (
                Claim("QD1 4 KiB write ratio", "~2.5x (2.5-2.63x)",
                      "ratio.4096.qd1.write", 1.8, 4.0),
                Claim("QD1 4 KiB read ratio", "~1.7x",
                      "ratio.4096.qd1.read", 1.3, 2.5),
                Claim("QD1 32 KiB write ratio (split values)", "up to 5.4x",
                      "ratio.32768.qd1.write", 2.5),
                Claim("QD64 4 KiB write ratio", "<1; as low as 0.86x",
                      "ratio.4096.qd64.write", hi=1.0),
                Claim("QD64 4 KiB read ratio", "<1; as low as 0.37x",
                      "ratio.4096.qd64.read", hi=1.0),
                Claim("QD64 32 KiB write ratio", "back above 1 at >=32 KiB",
                      "ratio.32768.qd64.write", 1.0),
                Claim("QD64 32 KiB read ratio", "back above 1 at >=32 KiB",
                      "ratio.32768.qd64.read", 1.0),
            ),
            TraceScenario("split values (64KiB) at depth", value_bytes=64 * KIB,
                          fill_fraction=0.15, queue_depth=16),
        ),
        Experiment(
            "fig5", "paper", fig5_packing_bandwidth,
            (
                Claim("KV bandwidth 25 KiB / 24 KiB", "drops sharply",
                      "kv.25600_over_24576", hi=0.6),
                Claim("KV bandwidth 48 KiB / 25 KiB", "recovers toward 48 KiB",
                      "kv.49152_over_25600", 1.2),
                Claim("KV bandwidth 49 KiB / 48 KiB", "drops again",
                      "kv.50176_over_49152", hi=0.8),
                Claim("block bandwidth, largest adjacent step", "smooth",
                      "block.max_step", hi=0.15),
                Claim("KV fragments at 49 KiB", "3 data + 2 offset pages",
                      "kv.50176.fragments", 5, 5),
            ),
            TraceScenario("small-value packing bandwidth", value_bytes=1024,
                          fill_fraction=0.0, op="insert", queue_depth=16),
        ),
        Experiment(
            "fig6", "paper", fig6_foreground_gc,
            (
                Claim("KV uniform: foreground GC runs", "collapses",
                      "kv-uniform.foreground_gc_runs", 1),
                Claim("KV uniform: worst/first bandwidth window", "collapses",
                      "kv-uniform.trough_ratio", hi=0.5),
                Claim("KV sliding window: foreground GC runs", "also collapses",
                      "kv-window.foreground_gc_runs", 1),
                Claim("KV sliding window: worst/first window", "also collapses",
                      "kv-window.trough_ratio", hi=0.5),
                Claim("RocksDB on block: foreground GC runs", "none",
                      "rocksdb-uniform.foreground_gc_runs", 0, 0),
            ),
            TraceScenario("foreground GC under sustained updates",
                          fill_fraction=0.8, op="update", queue_depth=16,
                          blocks_per_plane=8),
        ),
        Experiment(
            "fig7", "paper", fig7_space_amplification,
            (
                Claim("KV-SSD at 50 B values", "~17x (up to 20x)",
                      "kvssd.50.sa", 14.0, 21.0),
                Claim("KV-SSD at 1 KiB values", "~1 (tight packing)",
                      "kvssd.1024.sa", hi=1.1),
                Claim("KV-SSD at 4 KiB values", "~1 (tight packing)",
                      "kvssd.4096.sa", hi=1.05),
                Claim("Aerospike at 50 B values", "<2 (1.8x)",
                      "aerospike.50.sa", hi=2.0),
                Claim("RocksDB worst case", "1.111x", "rocksdb.sa", 1.101, 1.121),
                Claim("max KVPs on 3.84 TB (billions)", "~3.1",
                      "max_kvps_billions", 2.8, 3.4),
                Claim("measured vs closed-form KV-SSD, worst size", "-",
                      "kvssd.worst_analytic_gap", hi=0.02),
            ),
            TraceScenario("tiny values (512B), space overheads", value_bytes=512,
                          fill_fraction=0.0, op="insert", queue_depth=4),
        ),
        Experiment(
            "fig8", "paper", fig8_key_size_bandwidth,
            (
                Claim("async bandwidth step, 8 B -> 16 B keys", "flat up to 16 B",
                      "async.k8_to_k16_step", hi=0.1),
                Claim("drop past 16 B (async)", "as low as ~0.53x",
                      "cliff_ratio.async", hi=0.7),
                Claim("drop past 16 B (sync)", "present, smaller",
                      "cliff_ratio.sync", hi=0.98),
            ),
            TraceScenario("long keys (multi-command submissions)",
                          fill_fraction=0.0, op="insert", queue_depth=16,
                          key_digits=60),
        ),
        Experiment(
            "headline", "paper", headline_scalars,
            (
                Claim("4K rand read BW, KV/block (QD1, 45% fill)", "as low as 0.44x",
                      "bw_ratio_4k_rand_read", hi=1.0),
                Claim("4K rand write BW, KV/block (QD1, 45% fill)", "as low as 0.22x",
                      "bw_ratio_4k_rand_write", hi=1.0),
            ),
        ),
        Experiment(
            "ablations", "ablations", ablations,
            (
                Claim("50 B space amp, 256 B / 1 KiB min allocation",
                      "min allocation causes it (Fig. 7)",
                      "min_alloc_bytes.space_amp_50b.256_over_1024", hi=0.3),
                Claim("write degradation, scaled index DRAM",
                      "index outgrows DRAM (Fig. 3)",
                      "index_dram.write_degradation.scaled", 3.0),
                Claim("write degradation, 64 MiB index DRAM", "no knee if it fits",
                      "index_dram.write_degradation.64MiB", hi=1.2),
                Claim("QD64 insert latency, 16 / 4 dies wide",
                      "wide striping wins at depth (Fig. 4)",
                      "stream_width.insert_us.16_over_4", hi=1.0),
                Claim("first split value, 512 B - 7.5 KiB reserve (KiB)",
                      "reserve sets the dips (Fig. 5)",
                      "page_reserve_bytes.first_split_kib.512_minus_7680", 1),
            ),
        ),
        Experiment(
            "ycsb", "ycsb", run_ycsb_sweep,
            (
                Claim("E (scans) KV/RocksDB", "future work; no ordered scan",
                      "E.ratio", 5.0),
                Claim("E ratio over the worst point-workload ratio", "-",
                      "E.ratio_over_worst_point", 2.0),
                Claim("C (read-only) KV/RocksDB", "reads favor RocksDB (Fig. 2)",
                      "C.ratio", 1.0),
                Claim("A (update-heavy) ratio over C's", "updates favor KV (Fig. 2)",
                      "A_over_C.ratio", hi=1.0),
            ),
        ),
        # Beyond the paper: the paper column is "-", the finding says what
        # the design expects (DESIGN §§9, 13-15).
        Experiment(
            "fig_cluster_scaling", "cluster", cluster_shard_scaling,
            (
                Claim("throughput 8 / 2 shards: scales, short of linear", "-",
                      "scaling_ratio", 2.0, 4.0),
                Claim("throughput gain, worst shard-count doubling", "-",
                      "worst_doubling_gain", 1.2),
                Claim("router share of op time, worst cluster size", "-",
                      "worst_router_share", hi=0.05),
            ),
        ),
        Experiment(
            "fig_cluster_rebalance", "cluster", cluster_rebalance_tail,
            (
                Claim("rebalance loses an acknowledged write (1 = yes)", "-",
                      "lost_any_write", 0, 0),
                Claim("acknowledged writes read back after the run", "-",
                      "verify_checked", 1),
                Claim("p99 inflation through the rebalance window", "-",
                      "tail_inflation.p99", 1.0),
            ),
        ),
        Experiment(
            "fig_cluster_replication", "cluster", cluster_replication_cost,
            (
                Claim("write cost at R=2 (flash programs / R=1)", "-",
                      "r2.write_cost", 1.2),
                Claim("write cost at R=3 (flash programs / R=1)", "-",
                      "r3.write_cost", 1.2),
                Claim("flash programs added from R=2 to R=3", "-",
                      "flash_programs.r3_minus_r2", 1),
            ),
        ),
        Experiment(
            "fig_frontend", "frontend", frontend_load_sweep,
            (
                Claim("saturation knee (kops offered), inside the sweep", "-",
                      "knee_kops", 32.0, 512.0),
                Claim("queueing share of the added lat p99 at the knee", "-",
                      "lat.queueing_share_at_knee", 0.8),
                Claim("lat-class SLO violations at the lowest load", "-",
                      "lat.16k.violation_fraction", hi=0.05),
            ),
        ),
        Experiment(
            "fig_replay_rotation", "replay", replay_rotation,
            (
                Claim("ops completed / offered, worst rotation cell", "-",
                      "worst_completed_fraction", 1.0, 1.0),
                # Neither device's tail is locality-bound at this scale:
                # rotation moves each by a few percent, either way.
                Claim("KV p99, fastest rotation / static", "-",
                      "kv.rotation_penalty", 0.9, 1.1),
                Claim("block p99, fastest rotation / static", "-",
                      "block.rotation_penalty", 0.9, 1.1),
            ),
        ),
        Experiment(
            "fig_replay_mix", "replay", replay_ttl_scan_mix,
            (
                Claim("prefix scans run (ttl+scan)", "-", "ttl+scan.scans", 1),
                Claim("expiry deletes, fewer of the two ttl variants", "-",
                      "ttl_variants.fewest_deletes", 1),
                Claim("read p99 inflation, ttl+scan / plain", "-",
                      "tail_inflation.ttl+scan", 2.0),
            ),
        ),
        Experiment(
            "faults", "faults", run_fault_sweep,
            (
                Claim("failed ops - uncorrectable reads, worst cell", "-",
                      "worst_unexplained_failures", 0, 0),
                Claim("rate steps at which read retries do not grow", "-",
                      "retry_steps_not_growing", 0, 0),
                Claim("cells degraded to read-only", "-", "read_only_cells", 0, 0),
                Claim("p999 inflation at rate 5e-2, lesser personality", "-",
                      "lesser_p999_inflation.0.05", 1.1),
            ),
        ),
    )
}
