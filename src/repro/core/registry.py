"""The experiment registry: every figure the repo can regenerate, once.

:data:`EXPERIMENTS` is the only list of experiments in the tree.  The
CLI selects rows by name or group and prints ``result.render()``; the
golden and smoke suites run each row's ``mini`` and diff
``result.metrics()``; the paper benches print the same ``render()``.
Adding an experiment is: write the ``fig*``-style function (returning a
``*Result`` with ``render()``/``metrics()``), add one row here, run
``pytest tests/test_golden_figures.py --regen-golden``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping

from repro.core.figures import (
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
from repro.frontend.run import frontend_load_sweep
from repro.units import KIB


@dataclass(frozen=True)
class Experiment:
    """One row of :data:`EXPERIMENTS`."""

    name: str
    #: ``paper`` rows are CLI commands by name (and make up ``repro all``);
    #: the other groups are one CLI command each, running all their rows.
    group: str
    #: Called as ``fn(runner=..., **kwargs)``; returns a ``*Result``.
    fn: Callable[..., Any]
    #: ``fn`` keyword -> CLI option (argparse dest) that supplies it.
    cli: Mapping[str, str]
    #: Keywords of the smallest meaningful run — what the golden and smoke
    #: suites execute, and ``repro replay --smoke``.
    mini: Mapping[str, Any]


EXPERIMENTS: Dict[str, Experiment] = {
    row.name: row
    for row in (
        Experiment(
            "fig2", "paper", fig2_end_to_end, {"n_ops": "n_ops"},
            dict(n_ops=250, queue_depth=8, systems=("kvssd", "rocksdb"),
                 patterns=("seq", "rand"), blocks_per_plane=8),
        ),
        Experiment(
            "fig3", "paper", fig3_index_occupancy,
            {"measured_ops": "measured_ops"},
            dict(value_bytes=512, low_fraction=0.0005, high_fraction=0.5,
                 measured_ops=200, blocks_per_plane=8),
        ),
        Experiment(
            "fig4", "paper", fig4_value_size_concurrency, {"n_ops": "n_ops"},
            dict(value_sizes=(4 * KIB,), queue_depths=(1, 64), n_ops=200,
                 blocks_per_plane=8),
        ),
        Experiment(
            "fig5", "paper", fig5_packing_bandwidth, {"n_ops": "n_ops"},
            dict(value_sizes=(24 * KIB, 25 * KIB), n_ops=200, queue_depth=32,
                 blocks_per_plane=8),
        ),
        Experiment(
            "fig6", "paper", fig6_foreground_gc, {},
            dict(blocks_per_plane=4,
                 scenarios=("kv-uniform", "rocksdb-uniform")),
        ),
        Experiment(
            "fig7", "paper", fig7_space_amplification, {},
            dict(value_sizes=(50, 1024, 4096), kvps=3000, blocks_per_plane=8),
        ),
        Experiment(
            "fig8", "paper", fig8_key_size_bandwidth, {"n_ops": "n_ops"},
            dict(key_sizes=(16, 24), n_ops=400, blocks_per_plane=8),
        ),
        Experiment(
            "headline", "paper", headline_scalars, {},
            # Enough ops that Aerospike's updates leave its write buffer:
            # every headline ratio already points the paper's way.
            dict(n_ops=800, blocks_per_plane=8),
        ),
        Experiment(
            "fig_cluster_scaling", "cluster", cluster_shard_scaling,
            {"n_ops": "cluster_ops"}, dict(n_ops=80),
        ),
        Experiment(
            "fig_cluster_rebalance", "cluster", cluster_rebalance_tail,
            {"n_ops": "cluster_ops"}, dict(n_ops=80),
        ),
        Experiment(
            "fig_cluster_replication", "cluster", cluster_replication_cost,
            {"n_ops": "cluster_ops"}, dict(n_ops=80),
        ),
        Experiment(
            "fig_frontend", "frontend", frontend_load_sweep,
            {"loads_kops": "loads", "n_requests": "frontend_ops",
             "scheduler": "scheduler"},
            # One load on the device-bound plateau, one far past
            # saturation: pins the knee without the full curve.
            dict(loads_kops=(16.0, 384.0), n_requests=240,
                 blocks_per_plane=8),
        ),
        Experiment(
            "fig_replay_rotation", "replay", replay_rotation, {},
            dict(rotate_every=(0, 64), n_ops=200, population=512,
                 working_set=64, blocks_per_plane=8),
        ),
        Experiment(
            "fig_replay_mix", "replay", replay_ttl_scan_mix,
            {"n_ops": "replay_ops"},
            dict(variants=("plain", "ttl+scan"), n_ops=200, population=400,
                 ttl_ops=120, blocks_per_plane=8),
        ),
    )
}
