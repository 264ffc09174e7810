"""Command line of the benchmark.

The driver's form, one fresh single-threaded process per call::

    python3 -m bench --workload W --seed N --seconds S --trace 0|1

prints human-readable lines and then, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Subcommands for people: ``run``, ``trace``, ``all``,
``compare``, ``selfcheck``, ``manifest``.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from bench.catalog import REFERENCE_SECONDS, WORKLOADS, manifest

SUBCOMMANDS = ("run", "trace", "all", "compare", "selfcheck", "manifest")


def _workload_args(parser: argparse.ArgumentParser, required: bool) -> None:
    if required:
        parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1,
        help="feeds every WorkloadSpec/ArrivalSpec/ClusterSpec seed",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(REFERENCE_SECONDS),
        help="run length the fixed op counts are scaled to",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="extra multiplier on every op count (tests use 0.05)",
    )
    parser.add_argument("--out", help="also write the full report here as JSON")


def _print_report(report) -> None:
    print(f"# {report.workload} [{report.mode}] seed={report.seed} "
          f"seconds={report.seconds:g} scale={report.scale:g} "
          f"calibration_s={report.calibration_s:.5f}")
    for index, rep in enumerate(report.repetitions):
        print(f"#   repetition {index}: setup {rep['setup_s']:.3f} s, "
              f"timed phase {rep['wall_s']:.3f} s in {len(rep['laps_s'])} laps")
    for name, entry in report.metrics.items():
        print(f"#   {name:<48} {entry['value']:>16.6f} {entry['unit']}")
    for name, value in report.extra.get("stopwatch", {}).items():
        print(f"#   stopwatch[{name}] = {value:.6f}")
    for name, samples in report.extra.get("samples", {}).items():
        print(f"#   samples[{name}] = {samples}")
    print(f"# sim_digest {report.sim_digest}")
    print(f"# {report.note}")
    for error in report.errors:
        print(f"# ERROR {error}")


def _emit(report, out: str) -> int:
    _print_report(report)
    if out:
        with open(out, "w", encoding="ascii") as handle:
            json.dump(report.as_dict(), handle, indent=1, sort_keys=True)
    print(report.result_line())
    return 0 if report.correct else 1


def main(argv: List[str], process_started: float) -> int:
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else ""
    rest = argv[1:] if command else argv
    parser = argparse.ArgumentParser(
        prog=f"python3 -m bench {command}".strip(),
        description=__doc__.split("\n\n")[0],
    )
    if command == "manifest":
        parser.parse_args(rest)
        print(json.dumps(manifest(), indent=2))
        return 0
    if command == "compare":
        parser.add_argument("before")
        parser.add_argument("after")
        args = parser.parse_args(rest)
        from bench.compare import compare_files

        return compare_files(args.before, args.after)
    if command == "selfcheck":
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--scale", type=float, default=0.25)
        args = parser.parse_args(rest)
        from bench.selfcheck import selfcheck

        return selfcheck(args.seed, args.scale)
    if command == "all":
        _workload_args(parser, required=False)
        parser.add_argument(
            "--traced", action="store_true",
            help="also run the traced pass of every workload",
        )
        args = parser.parse_args(rest)
        from bench.suite import run_all

        return run_all(args.seed, args.seconds, args.scale, args.out, args.traced)

    _workload_args(parser, required=True)
    if not command:
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(rest)
    traced = command == "trace" or (not command and args.trace == 1)
    from bench import harness

    if traced:
        report = harness.trace(args.workload, args.seed, args.seconds, args.scale)
    else:
        report = harness.run(
            args.workload, args.seed, args.seconds, args.scale, process_started
        )
    return _emit(report, args.out)
