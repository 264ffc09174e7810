"""Replay-subsystem throughput benchmark: trace records per second.

Measures the full trace pipeline on one fixed cell: generate a merged
churn + expiry + scan-mix trace, write it out, parse it back (the
strict line parser is part of the cost), and replay it against a
prefilled KV rig through the YCSB driver.  Records/sec is the number
that decides whether replaying a Twitter-scale op log through the
simulator is feasible — and the strict parser plus the per-record
adapter dispatch are exactly the code this PR added, so this entry
gates their performance.

The cell is fixed — same specs, seeds, geometry, and record counts on
every run — so successive entries in ``BENCH_replay.json`` form a
comparable trajectory.  CI's perf-smoke job runs with ``--gate`` and
fails when throughput regresses more than the threshold against the
last committed entry.

Usage::

    PYTHONPATH=src python benchmarks/bench_replay.py
        [--reps N] [--record LABEL] [--gate] [--json PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.core.experiment import build_kv_rig, lab_geometry
from repro.kvbench.generators import (
    ChurnSpec,
    ExpirySpec,
    ScanMixSpec,
    generate_churn,
    generate_expiry,
    generate_scan_mix,
)
from repro.kvbench.runner import execute_workload
from repro.kvbench.traces import TraceWorkload, merge_traces, read_trace, \
    write_trace
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec
from repro.kvftl.config import KVSSDConfig
from repro.kvftl.population import KeyScheme
from repro.units import MIB

#: Fixed cell parameters.
POPULATION = 4096
VALUE_BYTES = 4096
QUEUE_DEPTH = 8
BLOCKS_PER_PLANE = 32
BASE_OPS = 2000
TTL_OPS = 600
SCAN_FRACTION = 0.15
SCAN_LENGTH = 16

#: Default trajectory file, at the repository root.
DEFAULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_replay.json"

#: perf-smoke failure threshold: measured records/sec below this fraction
#: of the last committed entry fails the gate.
GATE_FRACTION = 0.8


def _build_trace(path: str) -> int:
    """Generate, merge, and write the fixed trace; returns record count."""
    scheme = KeyScheme(prefix=b"fill", digits=12)
    churn = generate_churn(ChurnSpec(
        n_ops=BASE_OPS // 2, population=POPULATION, working_set=256,
        rotate_every_ops=200, value_bytes=VALUE_BYTES, key_scheme=scheme,
        seed=17,
    ))
    scans = generate_scan_mix(ScanMixSpec(
        n_ops=BASE_OPS // 2, population=POPULATION,
        scan_fraction=SCAN_FRACTION, scan_length=SCAN_LENGTH,
        value_bytes=VALUE_BYTES, key_scheme=scheme, seed=19,
    ))
    expiry = generate_expiry(ExpirySpec(
        n_ops=TTL_OPS, population=POPULATION // 8, ttl_us=20_000.0,
        value_bytes=VALUE_BYTES,
        interarrival_us=(BASE_OPS // 2) * 100.0 / TTL_OPS,
        key_scheme=KeyScheme(prefix=b"ttl-", digits=12), seed=23,
    ))
    return write_trace(path, merge_traces(churn, scans, expiry))


def replay_cell(path: str) -> dict:
    """Parse the trace at ``path`` and replay it; returns counters."""
    records = read_trace(path)
    rig = build_kv_rig(
        lab_geometry(BLOCKS_PER_PLANE),
        config=KVSSDConfig(index_dram_bytes=64 * MIB),
    )
    scheme = KeyScheme(prefix=b"fill", digits=12)
    rig.device.fast_fill(POPULATION, VALUE_BYTES, scheme)
    workload = TraceWorkload(records, key_scheme=scheme)
    driver = YCSBDriver(
        rig.adapter,
        YCSBSpec(workload="E", n_ops=len(records), population=POPULATION,
                 key_scheme=scheme, value_bytes=VALUE_BYTES,
                 scan_length=SCAN_LENGTH, seed=17),
    )
    run = execute_workload(rig.env, driver, workload.operations(),
                           queue_depth=QUEUE_DEPTH, name="bench.replay")
    rig.drain()
    if run.failed_ops:
        raise RuntimeError(f"replay cell failed {run.failed_ops} ops")
    return {"records": len(records), "events": rig.env.processed_events}


def run_benchmark(reps: int) -> dict:
    """Run the fixed cell ``reps`` times; report the best repetition."""
    best = None
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "bench.kvt.gz")
        for _ in range(reps):
            started = time.perf_counter()
            count = _build_trace(path)
            cell = replay_cell(path)
            wall_s = time.perf_counter() - started
            assert cell["records"] == count
            if best is None or wall_s < best["wall_s"]:
                best = {"wall_s": wall_s, **cell}
    assert best is not None
    return {
        "records_per_sec": round(best["records"] / best["wall_s"], 1),
        "events_per_sec": round(best["events"] / best["wall_s"], 1),
        "wall_s_per_cell": round(best["wall_s"], 4),
        "records_per_cell": best["records"],
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
        help="fail (exit 1) if records/sec < %.0f%% of the last entry"
        % (GATE_FRACTION * 100),
    )
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON)
    args = parser.parse_args(argv)

    result = run_benchmark(args.reps)
    print(
        f"cell: population={POPULATION} value={VALUE_BYTES}B "
        f"qd={QUEUE_DEPTH} records={result['records_per_cell']} "
        f"blocks_per_plane={BLOCKS_PER_PLANE}"
    )
    print(
        f"best of {args.reps}: {result['records_per_sec']:,.0f} records/s, "
        f"{result['events_per_sec']:,.0f} events/s "
        f"({result['wall_s_per_cell']:.3f}s per cell)"
    )

    trajectory = load_trajectory(args.json)

    if args.gate and trajectory:
        reference = trajectory[-1]["records_per_sec"]
        floor = reference * GATE_FRACTION
        status = "PASS" if result["records_per_sec"] >= floor else "FAIL"
        print(
            f"gate: {result['records_per_sec']:,.0f} records/s vs committed "
            f"{reference:,.0f} (floor {floor:,.0f}) -> {status}"
        )
        if status == "FAIL":
            return 1

    if args.record:
        entry = {
            "label": args.record,
            "date": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "cell": {
                "population": POPULATION,
                "value_bytes": VALUE_BYTES,
                "queue_depth": QUEUE_DEPTH,
                "base_ops": BASE_OPS,
                "ttl_ops": TTL_OPS,
                "scan_fraction": SCAN_FRACTION,
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
