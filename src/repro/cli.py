"""Command-line interface: regenerate any paper experiment directly.

Usage::

    python -m repro fig5
    python -m repro fig4 --parallel 4
    python -m repro fig3 --n-ops 2000
    python -m repro headline
    python -m repro all --parallel 2

Each subcommand selects rows of :data:`repro.core.registry.EXPERIMENTS`
— a paper figure by name, any other group (``ablations``, ``ycsb``,
``cluster``, ``frontend``, ``replay``, ``faults``) whole — runs them,
and prints ``result.render()``: the same rows/series the paper's figure
shows, then the row's claims table (finding | paper | measured | holds).
Without ``--n-ops`` a row runs at its recorded scale (its function's
defaults, the run EXPERIMENTS.md records) and a missed claim exits 1;
``--n-ops`` sizes every row that takes an op count, and such a row's
table cannot fail the run.

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
import sys
import time
from inspect import signature
from typing import List, Optional

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
    command: str, n_ops: Optional[int], runner: SweepRunner
) -> bool:
    """Run the command's rows, print each render and claims table.  False
    when a row that ran at its recorded scale missed a claim.

    ``n_ops`` sizes every row whose function takes an op count; a row
    that takes none (fig6, fig7) runs at its recorded scale regardless.
    """
    blocks: List[str] = []
    ok = True
    for experiment in _selected(command):
        scaled = n_ops is not None and "n_ops" in signature(experiment.fn).parameters
        result = experiment.fn(runner=runner, **({"n_ops": n_ops} if scaled else {}))
        table, held = experiment.claims_table(result)
        if scaled:
            table = "not the recorded scale: claims shown, not checked\n" + table
        else:
            ok = ok and held
        blocks += [result.render(), table]
    print("\n\n".join(blocks))
    return ok


def positive_int(text: str) -> int:
    """``--n-ops`` and ``--parallel``: a run needs at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _run_trace(args: argparse.Namespace, runner: SweepRunner) -> None:
    from repro.trace.export import format_breakdown, write_chrome_trace

    report = run_traced(fig=args.fig, n_ops=args.n_ops, runner=runner)
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
              "spans; lower --n-ops for a complete timeline")


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
        choices=_PAPER + ["all", "trace", *_GROUPS, "lint", "sanitize"],
        help=(
            "which figure (or 'headline'/'all') to regenerate, or which "
            "group of rows: 'ablations' to resize each mechanism the "
            "paper hypothesizes, 'ycsb' for YCSB A-F on the KV-SSD vs "
            "RocksDB, 'cluster' for the sharded multi-device cluster "
            "figures, 'frontend' to sweep the open-loop serving frontend "
            "over offered load, 'replay' for the trace-replay figures "
            "(working-set rotation and the TTL+scan mix), 'faults' to "
            "sweep statistical fault rates on both personalities; every "
            "row prints its claims table and a miss at the recorded "
            "scale exits 1.  Also 'trace' to record a span trace of a "
            "figure-shaped workload, 'lint' to run the simlint "
            "per-module static rules (paths, --list-rules, --sarif go "
            "to repro.lint), or 'sanitize' to replay a figure under the "
            "runtime nondeterminism sanitizer (--fig, --target, --n-ops "
            "go to repro.lint.sanitizer)"
        ),
    )
    parser.add_argument(
        "--parallel", type=positive_int, default=1, metavar="N",
        help=(
            "worker processes for independent experiment points "
            "(default: 1 = serial; output is byte-identical either way)"
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
        "--n-ops", type=positive_int, default=None, metavar="N",
        help=(
            "operations per measured phase, on every selected row that "
            "takes an op count (fig6 and fig7 take none), and trace's "
            "measured ops per personality (default: the recorded scale)"
        ),
    )
    parser.add_argument(
        "--fig", default="fig6", choices=list(scenarios()),
        help="trace: which figure-shaped scenario to record (default: fig6)",
    )
    parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="trace: Perfetto JSON output path (default: trace.json)",
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
    runner = SweepRunner(
        workers=args.parallel,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
    )
    # 'all' is the paper figures only: the groups beyond the paper run
    # by name, and trace is a diagnostic pass, not a figure.
    reported = 0
    ok = True
    for name in _PAPER if args.experiment == "all" else [args.experiment]:
        print(f"\n=== {name} ===")
        # Host-side progress reporting for the human running the CLI —
        # not simulation state, so the wall clock is the right clock.
        started = time.time()  # simlint: disable=SIM001
        try:
            if name == "trace":
                _run_trace(args, runner)
            elif not _run_experiments(name, args.n_ops, runner):
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
