"""Engine throughput benchmark: figure-cell points per second.

Measures how fast the simulation substrate executes one *point* of the
Fig. 4 value-size sweep — a KV cell and a block cell, each comprising
its prefill plus the measured update/read workloads at fixed seeds.
This is the unit of work every figure sweep is made of, so points/sec is
the number that decides whether regenerating the paper's figures takes
minutes or hours.  Events/sec (engine events processed per wall second)
is reported alongside as the substrate-level metric.

Unlike the committed fig4 cells (which cap their populations), this
cell's prefill is sized the way the paper's setups are — 55% of the KV
device's pages and 70% of the block device's capacity — so the fixed
cell weights prefill and measured phases the way real experiment points
do.

The cell is fixed — same sizes, seeds, geometry, and operation counts on
every run — so successive entries in ``BENCH_engine.json`` form a
comparable trajectory.  CI's perf-smoke job runs with ``--gate`` and
fails when throughput regresses more than the threshold against the last
committed entry, or when the cell's event count differs from it at all:
the count is exact on any host, so a change that adds, drops or reorders
simulated work cannot pass as a speed-up.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_points_per_sec.py
        [--reps N] [--record LABEL] [--gate] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core.experiment import (
    build_block_rig,
    build_kv_rig,
    lab_geometry,
)
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import Pattern, WorkloadSpec, generate_operations
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.units import MIB

#: Fixed cell parameters (fig4-style: random updates then random reads
#: over a prefilled population, both personalities, same geometry).
VALUE_BYTES = 4096
QUEUE_DEPTH = 8
N_OPS = 800
BLOCKS_PER_PLANE = 64

#: Default trajectory file, at the repository root.
DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: perf-smoke failure threshold: measured points/sec below this fraction
#: of the last committed entry fails the gate.
GATE_FRACTION = 0.8


def _measured_phases(env, adapter, population, scheme=None) -> None:
    """The two fixed-seed measured workloads every fig4 cell runs."""
    for op_kind, seed in (("update", 31), ("read", 37)):
        kwargs = dict(
            n_ops=N_OPS,
            op=op_kind,
            pattern=Pattern.UNIFORM,
            population=population,
            value_bytes=VALUE_BYTES,
            seed=seed,
        )
        if scheme is not None:
            kwargs["key_scheme"] = scheme
        spec = WorkloadSpec(**kwargs)
        execute_workload(
            env, adapter, generate_operations(spec),
            queue_depth=QUEUE_DEPTH, name=f"bench.{op_kind}",
        )


def kv_cell() -> int:
    """One KV cell; returns engine events processed."""
    rig = build_kv_rig(
        lab_geometry(BLOCKS_PER_PLANE),
        config=KVSSDConfig(index_dram_bytes=64 * MIB),
    )
    scheme = KeyScheme(prefix=b"fill", digits=12)
    layout = rig.device.layout_for(scheme.key_bytes, VALUE_BYTES)
    per_page = rig.device.usable_page // layout.footprint_bytes
    geometry = rig.device.array.geometry
    data_blocks = geometry.total_blocks - len(rig.device._index_region)
    pages_available = data_blocks * geometry.pages_per_block
    population = max(N_OPS, int(pages_available * 0.55) * per_page)
    rig.device.fast_fill(population, VALUE_BYTES, scheme)
    _measured_phases(rig.env, rig.adapter, population, scheme)
    rig.drain()
    return rig.env.processed_events


def block_cell() -> int:
    """One block cell; returns engine events processed."""
    rig = build_block_rig(lab_geometry(BLOCKS_PER_PLANE))
    adapter = rig.adapter(VALUE_BYTES)
    population = max(
        N_OPS, int(rig.device.user_capacity_bytes * 0.7 // adapter.io_bytes)
    )
    fill_units = max(1, population * adapter.io_bytes // rig.device.map_unit)
    rig.device.prime_sequential_fill(min(fill_units, rig.device.n_units))
    _measured_phases(rig.env, adapter, population)
    rig.drain()
    return rig.env.processed_events


def run_benchmark(reps: int) -> dict:
    """Run the fixed cell ``reps`` times; report the best repetition."""
    best = None
    for _ in range(reps):
        started = time.perf_counter()
        kv_events = kv_cell()
        block_events = block_cell()
        wall_s = time.perf_counter() - started
        if best is None or wall_s < best["wall_s"]:
            best = {"wall_s": wall_s, "events": kv_events + block_events}
    assert best is not None
    return {
        "points_per_sec": round(2.0 / best["wall_s"], 3),
        "events_per_sec": round(best["events"] / best["wall_s"], 1),
        "wall_s_per_point_pair": round(best["wall_s"], 4),
        "events_per_point_pair": best["events"],
        "reps": reps,
    }


def load_trajectory(path: Path) -> list:
    if not path.exists():
        return []
    return json.loads(path.read_text(encoding="ascii"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument(
        "--record", metavar="LABEL",
        help="append an entry labelled LABEL to the trajectory file",
    )
    parser.add_argument(
        "--gate", action="store_true",
        help="fail (exit 1) if points/sec < %.0f%% of the last entry, or "
        "if events per point pair differ from it" % (GATE_FRACTION * 100),
    )
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON)
    args = parser.parse_args(argv)

    result = run_benchmark(args.reps)
    print(
        f"cell: value={VALUE_BYTES}B qd={QUEUE_DEPTH} n_ops={N_OPS} "
        f"blocks_per_plane={BLOCKS_PER_PLANE}"
    )
    print(
        f"best of {args.reps}: {result['points_per_sec']:.3f} points/s, "
        f"{result['events_per_sec']:,.0f} events/s "
        f"({result['wall_s_per_point_pair']:.3f}s per kv+block pair)"
    )

    trajectory = load_trajectory(args.json)

    if args.gate and trajectory:
        reference = trajectory[-1]["points_per_sec"]
        floor = reference * GATE_FRACTION
        fast_enough = result["points_per_sec"] >= floor
        print(
            f"gate: {result['points_per_sec']:.3f} points/s vs committed "
            f"{reference:.3f} (floor {floor:.3f}) -> "
            f"{'PASS' if fast_enough else 'FAIL'}"
        )
        committed_events = trajectory[-1]["events_per_point_pair"]
        same_work = result["events_per_point_pair"] == committed_events
        print(
            f"gate: {result['events_per_point_pair']} events per point pair "
            f"vs committed {committed_events} (exact) -> "
            f"{'PASS' if same_work else 'FAIL'}"
        )
        if not (fast_enough and same_work):
            return 1

    if args.record:
        entry = {
            "label": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "cell": {
                "value_bytes": VALUE_BYTES,
                "queue_depth": QUEUE_DEPTH,
                "n_ops": N_OPS,
                "blocks_per_plane": BLOCKS_PER_PLANE,
            },
        }
        entry.update(result)
        trajectory.append(entry)
        args.json.write_text(
            json.dumps(trajectory, indent=2) + "\n", encoding="ascii"
        )
        print(f"recorded {args.record!r} in {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
