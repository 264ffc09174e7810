"""The benchmark's vocabulary: workloads, metrics, bounds, predictions.

``BENCHMARK.json`` at the repository root is this module's
:func:`manifest` written out (``python3 -m bench manifest``); the test
suite holds the two equal.  What the contract's schema has no room for
lives only here: each metric's kind, which end-to-end metric a layer
metric is expected to move and on which workload, the repetition count
and the op counts frozen after calibration.

Naming rule: ``host_*`` is host time or memory (what the simulator costs,
varies with the machine); ``sim_*`` is simulated time (what the modelled
device would take) and, like every plain count, repeats exactly for a
given seed.  Simulated units carry a ``_sim`` suffix so no reader mistakes
them for wall-clock.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Run length the op counts below were frozen at; ``--seconds`` scales
#: them proportionally (fixed operation counts keep ``sim_*`` exact).
REFERENCE_SECONDS = 15
#: Timed repetitions per run, each on a freshly built and prefilled rig.
#: Host time is taken lap by lap, each lap from its fastest repetition; as
#: many repetitions as keep a run near 17 s on the builder's host.
REPETITIONS: Dict[str, int] = {
    "kv_mixed": 7,
    "kv_gc_writes": 6,
    "host_stacks": 7,
    "frontend_rates": 8,
    "cluster_rebalance": 7,
}

#: name -> why it exists (one line; ``BENCHMARK.json`` carries it).
WORKLOADS: Dict[str, str] = {
    "kv_mixed": (
        "closed loop QD8: paper Fig. 2/4 cell, 50/50 read/update on the KV "
        "personality replayed from a kvtrace file; sim+kvftl do the host work, "
        "no GC, no host KV store"
    ),
    "kv_gc_writes": (
        "closed loop QD16: updates only on an aged KV device with GC running "
        "all phase (Fig. 6/7); ftl GC, flash program/erase and index merges "
        "dominate; a read-path change must not move it"
    ),
    "host_stacks": (
        "closed loop QD8: block personality under direct I/O, the LSM "
        "(RocksDB) and hash (Aerospike) stand-ins; kvftl is bypassed, so a "
        "KV-firmware change predicts no movement"
    ),
    "frontend_rates": (
        "open loop at fixed rates 32/48 kops (below the knee) and 768 kops "
        "(saturated): admission, EDF queues and batching over the KV rig; "
        "latency from the arrival-stamped trail"
    ),
    "cluster_rebalance": (
        "closed loop QD8 per shard: 4 shards R=2, three tenants, one shard "
        "degraded mid-stream, run through SweepRunner+ResultCache; the only "
        "workload on cluster, faults and exec"
    ),
}

#: Operations per repetition at REFERENCE_SECONDS, frozen after
#: calibration on the builder's host (2 cores, python 3.11.7) so that one
#: repetition's timed phase takes about 2 s there.
FROZEN_OPS: Dict[str, Dict[str, int]] = {
    "kv_mixed": {"ops": 30_000},
    "kv_gc_writes": {"ops": 22_000, "warmup_ops": 6_000},
    "host_stacks": {"direct": 12_000, "lsm": 10_000, "hashkv": 8_000},
    "frontend_rates": {"requests_per_rate": 7_000},
    "cluster_rebalance": {"ops_per_tenant": 2_500},
}

# (name, unit, better, bound, kind)
EndToEnd = Tuple[str, str, str, float, str]

#: The end-to-end metrics, emitted by every workload with tracing off.
#: ``bound`` is the share of the parent's median by which a metric may
#: worsen before a change counts as a regression.  For ``sim`` metrics the
#: contract's bound only has to cover seed-to-seed spread; at one seed
#: they are exact and ``bench compare`` treats any drift as a model change.
END_TO_END: List[EndToEnd] = [
    ("setup_s", "s", "lower", 0.25, "host"),
    ("host_ops_per_s", "1/s", "higher", 0.25, "host"),
    ("host_peak_rss_mib", "MiB", "lower", 0.10, "host"),
    ("sim_kops", "1/ms_sim", "higher", 0.20, "sim"),
    ("sim_mean_us", "us_sim", "lower", 0.10, "sim"),
    ("sim_p99_us", "us_sim", "lower", 0.20, "sim"),
]

#: Layers: one per ``src/repro/<package>``, plus two buckets.
LAYERS = (
    "sim", "flash", "ftl", "kvftl", "blockftl", "nvme", "api", "hostkv",
    "kvbench", "metrics", "trace", "faults", "frontend", "cluster", "exec",
    "core", "stdlib",
)

# (name, unit, better, moves): ``moves`` is the prediction written down
# before measuring: the end-to-end metric this one should move, and where.
PerLayer = Tuple[str, str, str, str]

_EVERYWHERE = "host_ops_per_s on every workload that enters the layer"

_SPECIFIC: List[PerLayer] = [
    # -- sim -------------------------------------------------------------
    ("sim.events_per_op", "count", "lower",
     "host_ops_per_s everywhere (= 1 / (events/op x us/event)); the "
     "machine-free half of simulator speed"),
    ("sim.host_us_per_event", "us", "lower", "host_ops_per_s everywhere"),
    ("sim.host_events_per_s", "1/s", "higher", "host_ops_per_s everywhere"),
    ("sim.sim_elapsed_s", "s_sim", "lower", "sim_kops on the same workload"),
    # -- flash -----------------------------------------------------------
    ("flash.reads_per_op", "count", "lower", "sim_mean_us on kv_mixed, host_stacks"),
    ("flash.programs_per_op", "count", "lower", "e2e.sim_waf everywhere"),
    ("flash.erases_per_kop", "count", "lower", "sim_p99_us on kv_gc_writes"),
    ("flash.busy_us_per_op", "us_sim", "lower",
     "sim_p99_us / sim_kops on kv_gc_writes (die occupancy under GC)"),
    ("flash.die_utilization", "ratio", "lower", "sim_p99_us on kv_gc_writes"),
    # -- ftl -------------------------------------------------------------
    ("ftl.gc_runs", "count", "lower",
     "sim_p99_us, e2e.sim_waf on kv_gc_writes; 0 and no effect on kv_mixed"),
    ("ftl.gc_foreground_fraction", "ratio", "lower", "sim_p99_us on kv_gc_writes"),
    ("ftl.gc_relocated_bytes_per_user_byte", "ratio", "lower",
     "e2e.sim_waf, sim_kops on kv_gc_writes"),
    ("ftl.buffer_stall_us_per_op", "us_sim", "lower",
     "e2e.sim_write_p99_us on host_stacks, kv_gc_writes"),
    ("ftl.allowance_stall_us_per_op", "us_sim", "lower", "sim_p99_us on kv_gc_writes"),
    ("ftl.drain_host_s", "s", "lower", "host_ops_per_s on the closed-loop workloads"),
    # -- kvftl -----------------------------------------------------------
    ("kvftl.index_flash_reads_per_op", "count", "lower",
     "sim_mean_us on kv_gc_writes (index not resident); 0 on kv_mixed"),
    ("kvftl.index_flash_writes_per_op", "count", "lower",
     "sim_p99_us, e2e.sim_waf on kv_gc_writes"),
    ("kvftl.index_resident_fraction", "ratio", "higher",
     "e2e.sim_read_p99_us on kv_mixed"),
    ("kvftl.fast_fill_host_s", "s", "lower", "setup_s on kv_mixed (822 k-pair fill)"),
    ("kvftl.fast_fill_pairs_per_s", "1/s", "higher", "setup_s on kv_mixed"),
    # -- blockftl --------------------------------------------------------
    ("blockftl.prime_fill_host_s", "s", "lower", "setup_s on host_stacks"),
    ("blockftl.prime_fill_units_per_s", "1/s", "higher", "setup_s on host_stacks"),
    ("blockftl.direct.host_ops_per_s", "1/s", "higher", "host_ops_per_s on host_stacks"),
    ("blockftl.direct.sim_p99_us", "us_sim", "lower", "sim_p99_us on host_stacks"),
    # -- nvme, api -------------------------------------------------------
    ("nvme.commands_per_op", "count", "lower", "sim_mean_us at the QD-bound workloads"),
    ("nvme.commands_failed", "count", "lower", "failed on every workload"),
    ("nvme.sim_us_per_op", "us_sim", "lower", "sim_mean_us at the QD-bound workloads"),
    ("api.sim_host_cpu_us_per_op", "us_sim", "lower",
     "the paper's 13x host-CPU claim: host_stacks vs kv_mixed"),
    # -- hostkv ----------------------------------------------------------
    ("hostkv.lsm.host_ops_per_s", "1/s", "higher", "host_ops_per_s on host_stacks"),
    ("hostkv.lsm.sim_p99_us", "us_sim", "lower", "sim_p99_us on host_stacks"),
    ("hostkv.lsm.flushes", "count", "lower", "e2e.sim_waf on host_stacks"),
    ("hostkv.lsm.compactions", "count", "lower",
     "e2e.sim_waf, api.sim_host_cpu_us_per_op on host_stacks"),
    ("hostkv.lsm.stall_us_per_op", "us_sim", "lower", "e2e.sim_write_p99_us on host_stacks"),
    ("hostkv.lsm.app_bytes_written", "count", "lower", "e2e.sim_waf on host_stacks"),
    ("hostkv.lsm.space_amp", "ratio", "lower", "the paper's Fig. 7 (~1.11)"),
    ("hostkv.hashkv.host_ops_per_s", "1/s", "higher", "host_ops_per_s on host_stacks"),
    ("hostkv.hashkv.sim_p99_us", "us_sim", "lower", "sim_p99_us on host_stacks"),
    ("hostkv.hashkv.defrag_runs", "count", "lower", "e2e.sim_waf on host_stacks"),
    ("hostkv.hashkv.defrag_moved_bytes_per_user_byte", "ratio", "lower",
     "e2e.sim_waf on host_stacks"),
    ("hostkv.hashkv.space_amp", "ratio", "lower", "the paper's Fig. 7"),
    ("hostkv.fs.journal_writes_per_op", "count", "lower", "e2e.sim_waf on host_stacks"),
    ("hostkv.fs.metadata_ops_per_op", "count", "lower",
     "api.sim_host_cpu_us_per_op on host_stacks"),
    # -- kvbench ---------------------------------------------------------
    ("kvbench.opgen_ops_per_s", "1/s", "higher",
     "host_ops_per_s on kv_gc_writes (lazy generation sits in the timed phase)"),
    ("kvbench.trace_write_records_per_s", "1/s", "higher", "setup_s on kv_mixed"),
    ("kvbench.trace_parse_records_per_s", "1/s", "higher", "setup_s on kv_mixed"),
    ("kvbench.warmup_host_s", "s", "lower", "setup_s on kv_gc_writes"),
    # -- frontend --------------------------------------------------------
    ("frontend.r32.sim_p99_us", "us_sim", "lower", "e2e.sim_slo_max_kops"),
    ("frontend.r48.sim_p99_us", "us_sim", "lower", "sim_p99_us on frontend_rates"),
    ("frontend.r768.sim_p99_us", "us_sim", "lower",
     "rises before sim_kops stops rising (latency leads saturation)"),
    ("frontend.r48.queue_p99_us", "us_sim", "lower", "sim_p99_us on frontend_rates"),
    ("frontend.r768.shed_ratio", "ratio", "lower", "sim_kops on frontend_rates"),
    ("frontend.r48.mean_batch", "count", "higher", "sim_mean_us on frontend_rates"),
    ("frontend.r48.phase_admit_us", "us_sim", "lower", "sim_mean_us on frontend_rates"),
    ("frontend.r48.phase_queue_us", "us_sim", "lower", "sim_mean_us on frontend_rates"),
    ("frontend.r48.phase_dispatch_us", "us_sim", "lower", "sim_mean_us on frontend_rates"),
    ("frontend.r48.phase_device_us", "us_sim", "lower", "sim_mean_us on frontend_rates"),
    ("frontend.arrivals_host_s", "s", "lower", "setup_s on frontend_rates"),
    ("frontend.generator_late_us", "us", "lower",
     "0 by construction: arrivals are data, not a live generator"),
    # -- cluster, faults -------------------------------------------------
    ("cluster.plan_host_s", "s", "lower",
     "host_ops_per_s, setup_s on cluster_rebalance"),
    ("cluster.router_share", "ratio", "lower", "sim_mean_us on cluster_rebalance"),
    ("cluster.drain_ops", "count", "lower", "sim_kops on cluster_rebalance"),
    ("cluster.rebalance_p99_us", "us_sim", "lower", "sim_p99_us on cluster_rebalance"),
    ("cluster.verify_checked", "count", "higher", "correctness coverage, no metric"),
    ("faults.program_fails", "count", "lower", "sim_p99_us on cluster_rebalance"),
    ("faults.retired_blocks", "count", "lower", "sim_p99_us on cluster_rebalance"),
    # -- exec ------------------------------------------------------------
    ("exec.cold_host_s", "s", "lower", "host_ops_per_s on cluster_rebalance"),
    ("exec.warm_host_s", "s", "lower", "none end to end; cache-replay cost"),
    ("exec.warm_hit_ratio", "ratio", "higher", "must be 1.0"),
    ("exec.salt_host_s", "s", "lower", "setup_s on cluster_rebalance"),
    # -- trace, metrics --------------------------------------------------
    ("trace.host_overhead_ratio", "ratio", "lower",
     "none: cProfile wall / untraced wall, the price of the traced pass"),
    ("trace.spans_recorded", "count", "higher", "none"),
    ("trace.spans_dropped", "count", "lower", "none"),
    ("metrics.latency_samples", "count", "higher",
     "none: sample count behind every latency figure"),
    # -- the benchmark's own frames inside the timed phase ----------------
    ("bench.host_self_s", "s", "lower",
     "none: the reference-model adapter's cost, constant across commits"),
    # -- workload-specific end-to-end values (no room in the uniform list) --
    ("e2e.sim_p50_us", "us_sim", "lower", "median beside sim_mean_us"),
    ("e2e.sim_p999_us", "us_sim", "lower",
     "tail where >= 10 samples lie beyond it: kv_*, host_stacks"),
    ("e2e.sim_read_p99_us", "us_sim", "lower", "kv_mixed, host_stacks"),
    ("e2e.sim_write_p99_us", "us_sim", "lower", "kv_*, host_stacks"),
    ("e2e.sim_waf", "ratio", "lower", "NAND bytes programmed / user bytes written"),
    ("e2e.sim_space_amp", "ratio", "lower", "kv_mixed, kv_gc_writes"),
    ("e2e.sim_slo_max_kops", "1/ms_sim", "higher",
     "highest fixed rate meeting the 2000 us p99 deadline with <= 1 % shed"),
]


def per_layer() -> List[PerLayer]:
    """Generic host-time metrics for every layer, then the specific ones."""
    generic: List[PerLayer] = []
    for layer in LAYERS:
        generic.append((f"{layer}.host_self_s", "s", "lower", _EVERYWHERE))
        generic.append((f"{layer}.calls_per_op", "count", "lower", _EVERYWHERE))
    return generic + _SPECIFIC


#: Per-layer rates derived as count / seconds of a set-up timer.
TIMER_RATES: Dict[str, str] = {
    "kvftl.fast_fill_pairs_per_s": "kvftl.fast_fill_host_s",
    "blockftl.prime_fill_units_per_s": "blockftl.prime_fill_host_s",
    "kvbench.opgen_ops_per_s": "kvbench.opgen_host_s",
    "kvbench.trace_write_records_per_s": "kvbench.trace_write_host_s",
    "kvbench.trace_parse_records_per_s": "kvbench.trace_parse_host_s",
}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": REFERENCE_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _kind in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves in per_layer()
        ],
    }
