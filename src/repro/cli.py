"""Command-line interface: regenerate any paper experiment directly.

Usage::

    python -m repro fig5
    python -m repro fig fig4 --parallel 4
    python -m repro fig3 --measured-ops 2000
    python -m repro headline
    python -m repro all --parallel 2

Each subcommand selects rows of :data:`repro.core.registry.EXPERIMENTS`
— a paper figure by name, any other group (``ablations``, ``ycsb``,
``cluster``, ``frontend``, ``replay``, ``faults``) whole — runs them,
and prints ``result.render()``: the same rows/series the paper's figure
shows, then the row's claims table (finding | paper | measured | holds).
With no scale flag a row runs at its recorded scale (its function's
defaults, the run EXPERIMENTS.md records) and a missed claim exits 1;
with one (``--n-ops``, ``--loads``, ...) the table cannot fail the run.

``--parallel N`` fans each experiment's independent points over ``N``
worker processes; results are assembled in spec order, so the printed
figure output is byte-identical to a serial run.  Computed points land
in an on-disk cache (``.repro-cache/``, disable with ``--no-cache``)
keyed by a content hash of the cell inputs and a code-version salt, so
re-running a figure only recomputes what changed.  Cache/worker
statistics go to stderr; stdout carries only the figure output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Callable, List, Tuple

from repro.core.registry import EXPERIMENTS, Experiment
from repro.errors import ConfigurationError
from repro.exec.runner import SweepRunner
from repro.trace.run import run_traced, scenarios

#: Paper rows are commands by name, in 'all' order; every other group is
#: one command running all of its rows.
_PAPER = sorted(e.name for e in EXPERIMENTS.values() if e.group == "paper")
_GROUPS = sorted({e.group for e in EXPERIMENTS.values()} - {"paper"})


def _selected(command: str) -> List[Experiment]:
    """The registry rows one CLI command runs."""
    if command in _PAPER:
        return [EXPERIMENTS[command]]
    return [e for e in EXPERIMENTS.values() if e.group == command]


def _run_experiments(
    command: str, args: argparse.Namespace, runner: SweepRunner
) -> bool:
    """Run the command's rows, print each render and claims table.  False
    when a row that ran at its recorded scale (no scale flag given)
    missed a claim."""
    blocks: List[str] = []
    ok = True
    for experiment in _selected(command):
        kwargs = {
            keyword: getattr(args, dest)
            for keyword, dest in experiment.cli.items()
            if getattr(args, dest) is not None
        }
        result = experiment.fn(runner=runner, **kwargs)
        block = result.render()
        if experiment.name == "faults" and args.faults_out:
            from repro.faults.run import write_sweep_csv

            written = write_sweep_csv(result, args.faults_out)
            block += f"\nwrote {written} sweep rows to {args.faults_out}"
        table, held = experiment.claims_table(result)
        if kwargs:
            table = "not the recorded scale: claims shown, not checked\n" + table
        else:
            ok = ok and held
        blocks += [block, table]
    print("\n\n".join(blocks))
    return ok


def positive_int(text: str) -> int:
    """Every op-count flag and ``--parallel``: a run needs at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _numbers(text: str, check: Callable[[float], object], noun: str) -> List[float]:
    """A comma-separated list of at least one number, each passing ``check``."""
    try:
        values = [float(value) for value in text.split(",") if value.strip()]
        for value in values:
            check(value)
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values:
        raise argparse.ArgumentTypeError(f"needs at least one {noun}")
    return values


def fault_rates(text: str) -> List[float]:
    """``--fault-rates``: one or more rates the fault model takes."""
    from repro.faults.run import fault_profile

    return _numbers(text, fault_profile, "rate")


def offered_loads(text: str) -> Tuple[float, ...]:
    """``--loads``: one or more offered loads in kops, each finite and > 0."""
    def check(load: float) -> None:
        if not (math.isfinite(load) and load > 0.0):
            raise ValueError(f"load must be finite and > 0 kops, got {load:g}")

    return tuple(_numbers(text, check, "load"))


def _run_trace(args: argparse.Namespace, runner: SweepRunner) -> None:
    from repro.trace.export import format_breakdown, write_chrome_trace

    report = run_traced(fig=args.fig, n_ops=args.trace_ops, runner=runner)
    print(f"scenario: {args.fig} — {report.scenario.focus}")
    for personality, run in report.runs.items():
        print(f"\n[{personality}] {run.completed_ops} ops in "
              f"{run.elapsed_us / 1000.0:.1f}ms simulated")
        print(format_breakdown(report.breakdowns[personality]))
    events = write_chrome_trace(report.collector, args.out)
    print(f"\nwrote {events} events to {args.out} "
          "(load in https://ui.perfetto.dev or chrome://tracing)")
    if report.collector.dropped:
        print(f"warning: ring buffer dropped {report.collector.dropped} "
              "spans; lower --trace-ops for a complete timeline")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate experiments from 'KV-SSD: What Is It Good For?' "
            "(DAC 2021) on the simulated testbed."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=_PAPER + ["all", "fig", "trace", *_GROUPS, "lint", "sanitize"],
        help=(
            "which figure (or 'headline'/'all') to regenerate — 'fig' "
            "with a figure name as the next argument also works "
            "('repro fig fig4 --parallel 4') — or which group of rows: "
            "'ablations' to resize each mechanism the paper hypothesizes, "
            "'ycsb' for YCSB A-F on the KV-SSD vs RocksDB, 'cluster' for "
            "the sharded multi-device cluster figures, 'frontend' to sweep "
            "the open-loop serving frontend over offered load, 'replay' "
            "for the trace-replay figures (working-set rotation and the "
            "TTL+scan mix), 'faults' to sweep statistical fault rates on "
            "both personalities; every row prints its claims table and "
            "a miss at the recorded scale exits 1.  Also 'trace' to "
            "record a span trace of a figure-shaped workload, 'lint' to "
            "run the simlint per-module static rules (paths, "
            "--list-rules, --sarif go to repro.lint), or 'sanitize' to "
            "replay a figure under the runtime nondeterminism sanitizer "
            "(extra args go to repro.lint.sanitizer)"
        ),
    )
    parser.add_argument(
        "target", nargs="?", default=None,
        choices=_PAPER + ["all", None],
        help="with 'fig': which figure to regenerate",
    )
    parser.add_argument(
        "--parallel", type=positive_int,
        # A host-side default for how the sweep is executed; output is
        # byte-identical at any worker count, so no result can see it.
        # argparse converts a string default like a typed value.
        default=os.environ.get(  # simlint: disable=SIM001
            "REPRO_PARALLEL", "1"), metavar="N",
        help=(
            "worker processes for independent experiment points "
            "(default: $REPRO_PARALLEL or 1 = serial; output is "
            "byte-identical either way)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; do not read or write .repro-cache/",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="result-cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--n-ops", type=positive_int, default=None,
        help="operations per measured phase (default: the recorded scale)",
    )
    parser.add_argument(
        "--measured-ops", type=positive_int, default=None,
        help="fig3 measured operations per phase (default: the recorded scale)",
    )
    parser.add_argument(
        "--fig", default="fig6", choices=list(scenarios()),
        help="trace: which figure-shaped scenario to record (default: fig6)",
    )
    parser.add_argument(
        "--trace-ops", type=positive_int, default=None, metavar="N",
        help="trace: measured ops per personality "
             "(default: the scenario's own count)",
    )
    parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="trace: Perfetto JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--fault-rates", type=fault_rates, default=None, metavar="R,R,...",
        help="faults: comma-separated statistical rates to sweep "
             "(default: the recorded scale)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="faults: fault-injector RNG seed (default: the recorded scale)",
    )
    parser.add_argument(
        "--faults-out", default=None, metavar="PATH",
        help="faults: also write the sweep as CSV to PATH "
             "(parent directories are created)",
    )
    parser.add_argument(
        "--cluster-ops", type=positive_int, default=None, metavar="N",
        help="cluster: operations per tenant stream "
             "(default: the recorded scale)",
    )
    parser.add_argument(
        "--replay-ops", type=positive_int, default=None, metavar="N",
        help="replay: base-mix operations per variant (default: 1500)",
    )
    parser.add_argument(
        "--loads", type=offered_loads, default=None, metavar="K,K,...",
        help="frontend: comma-separated offered loads in kops "
             "(default: 16,32,64,128,256,512)",
    )
    parser.add_argument(
        "--frontend-ops", type=positive_int, default=None, metavar="N",
        help="frontend: requests offered per load point (default: 800)",
    )
    parser.add_argument(
        "--scheduler", default=None, choices=["edf", "fifo"],
        help="frontend: dispatch policy (default: edf)",
    )
    return parser


def main(argv: List[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # simlint has its own argument surface (paths, --list-rules,
        # --sarif); hand the rest of the command line straight to it.
        from repro.lint.__main__ import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["sanitize"]:
        # Same pattern: the sanitizer owns its argument surface.
        from repro.lint.sanitizer import main as sanitize_main

        return sanitize_main(argv[1:])
    args = build_parser().parse_args(argv)
    experiment = args.experiment
    if experiment == "fig":
        # 'repro fig fig4' meta-form: the figure rides in as the target.
        if args.target is None:
            raise SystemExit("repro fig: name a figure, e.g. 'repro fig fig4'")
        experiment = args.target
    elif args.target is not None:
        raise SystemExit(
            f"unexpected argument {args.target!r} after {experiment!r}"
        )
    runner = SweepRunner(
        workers=args.parallel,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    # 'all' is the paper figures only: the groups beyond the paper run
    # by name, and trace is a diagnostic pass, not a figure.
    reported = 0
    ok = True
    for name in _PAPER if experiment == "all" else [experiment]:
        print(f"\n=== {name} ===")
        # Host-side progress reporting for the human running the CLI —
        # not simulation state, so the wall clock is the right clock.
        started = time.time()  # simlint: disable=SIM001
        try:
            if name == "trace":
                _run_trace(args, runner)
            elif not _run_experiments(name, args, runner):
                ok = False
        except ConfigurationError as exc:
            # A scale no cell can run at, refused before any cell runs.
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.time() - started  # simlint: disable=SIM001
        print(f"[{name} done in {elapsed:.1f}s]")
        # Exec statistics go to stderr so stdout stays pure figure
        # output (byte-comparable across worker counts).
        for report in runner.reports[reported:]:
            print(report.format(), file=sys.stderr)
        reported = len(runner.reports)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
