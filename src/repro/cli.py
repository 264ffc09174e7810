"""Command-line interface: regenerate any paper experiment directly.

Usage::

    python -m repro fig5
    python -m repro fig fig4 --parallel 4
    python -m repro fig3 --measured-ops 2000
    python -m repro headline
    python -m repro all --parallel 2

Each subcommand selects rows of :data:`repro.core.registry.EXPERIMENTS`
— a paper figure by name, any other group (``ablations``, ``ycsb``,
``cluster``, ``frontend``, ``replay``) whole — runs them, and prints
``result.render()``: the same rows/series the paper's figure shows,
then the row's claims table (finding | paper | measured | holds).  With
no scale flag a row runs at its recorded scale (its function's defaults,
the run EXPERIMENTS.md records) and a missed claim exits 1; with one
(``--n-ops``, ``--measured-ops``, ...) the table cannot fail the run.

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
import os
import sys
import time
from typing import Any, Dict, List

from repro.core.registry import EXPERIMENTS, Experiment
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
    """Run the command's rows, print each render and claims table, apply
    the command's smoke gate.  False when a row that ran at its recorded
    scale (no scale flag given) missed a claim."""
    if command == "cluster" and args.smoke:
        _cluster_smoke(args, runner)
        return True
    if command == "frontend" and args.loads is not None:
        args.loads = _parse_loads(args.loads)
    mini = command == "replay" and args.smoke
    results: Dict[str, Any] = {}
    blocks: List[str] = []
    ok = True
    for experiment in _selected(command):
        kwargs = experiment.mini if mini else {
            keyword: getattr(args, dest)
            for keyword, dest in experiment.cli.items()
            if getattr(args, dest) is not None
        }
        result = experiment.fn(runner=runner, **kwargs)
        results[experiment.name] = result
        blocks.append(result.render())
        if experiment.claims:
            table, held = experiment.claims_table(result)
            if kwargs:
                table = "not the recorded scale: claims shown, not checked\n" + table
            else:
                ok = ok and held
            blocks.append(table)
    print("\n\n".join(blocks))
    if command == "frontend" and args.slo_gate is not None:
        _frontend_slo_gate(results["fig_frontend"], args.slo_gate)
    if mini:
        _replay_smoke_gate(
            results["fig_replay_rotation"], results["fig_replay_mix"]
        )
    return ok


def _parse_loads(text: str) -> tuple:
    try:
        loads = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise SystemExit(f"bad --loads value: {text!r}")
    if not loads or any(load <= 0.0 for load in loads):
        raise SystemExit(f"bad --loads value: {text!r}")
    return loads


def positive_int(text: str) -> int:
    """Every op-count flag and ``--parallel``: a run needs at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def fault_rates(text: str) -> List[float]:
    """``--fault-rates``: one or more rates the fault model takes."""
    from repro.errors import ConfigurationError
    from repro.faults.run import fault_profile

    try:
        rates = [float(rate) for rate in text.split(",") if rate.strip()]
        for rate in rates:
            fault_profile(rate)
    except (ValueError, ConfigurationError) as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not rates:
        raise argparse.ArgumentTypeError("needs at least one rate")
    return rates


def _cluster_smoke(args: argparse.Namespace, runner: SweepRunner) -> None:
    """CI-shaped smoke: 2 shards, R=2, one forced mid-run read-only
    degradation.  Exits non-zero if any acknowledged write is lost."""
    from repro.cluster.run import run_cluster
    from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec

    n_ops = args.cluster_ops or 300
    spec = ClusterSpec(
        shards=2, replication=2, partitions=8, vnodes=8,
        tenants=(
            TenantSpec(name="ta", workload="A", n_ops=n_ops,
                       population=2 * n_ops, seed=11),
        ),
        degrade=(DegradeEvent(shard=0, at_op=n_ops // 2),),
        rebalance_window_ops=max(1, n_ops // 4),
        seed=17,
    )
    result = run_cluster(spec, runner)
    print(result.render())
    if not result.zero_lost_writes:
        raise SystemExit("cluster smoke: lost acknowledged writes")
    print("zero lost acknowledged writes")


def _frontend_slo_gate(result: Any, budget: float) -> None:
    base = result.loads_kops[0]
    violation = result.violation_fraction["lat"][base]
    if violation > budget:
        raise SystemExit(
            f"frontend SLO gate: lat-class violation fraction "
            f"{violation:.3f} at {base:g} kops exceeds the "
            f"--slo-gate {budget:g} budget"
        )
    print(f"SLO gate ok: lat-class violations {violation:.3f} "
          f"<= {budget:g} at {base:g} kops")


def _replay_smoke_gate(rotation: Any, mix: Any) -> None:
    """Hard liveness gates: the replay path must actually rotate,
    expire, and scan."""
    churned = [r for r in rotation.rotate_every if r > 0]
    if not churned or any(
        rotation.completed_ops[d][r] == 0
        for d in rotation.latency_us for r in rotation.rotate_every
    ):
        raise SystemExit("replay smoke: rotation cells ran no operations")
    scan_cells = [v for v in mix.variants if "scan" in v]
    if not scan_cells or any(mix.ops[v]["scans"] == 0 for v in scan_cells):
        raise SystemExit("replay smoke: scan variants ran no scans")
    ttl_cells = [v for v in mix.variants if v.startswith("ttl")]
    if any(mix.ops[v]["deletes"] == 0 for v in ttl_cells):
        raise SystemExit("replay smoke: TTL variants expired no keys")
    print("replay smoke ok: rotation, expiry deletes, and scans all live")


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
              "spans; raise max_spans for a complete timeline")


def _run_faults(args: argparse.Namespace, runner: SweepRunner) -> None:
    from repro.faults.run import run_fault_sweep, write_sweep_csv
    from repro.kvbench.report import format_table

    scale = {} if args.n_ops is None else {"n_ops": args.n_ops}
    points = run_fault_sweep(rates=args.fault_rates, seed=args.fault_seed,
                             runner=runner, **scale)
    # Tail inflation over the same personality's perfect-flash row: read
    # retries are invisible at the median and stretch p99/p999.
    clean = {p.personality: p.latency_summary() for p in points if p.rate == 0.0}
    headers = ["system", "rate", "ops", "fail", "p50 us", "p99 us",
               "retry", "corr", "uncorr", "pfail", "retired", "mode"]
    if clean:
        headers += ["p99 x", "p999 x"]
    rows = []
    for point in points:
        latency = point.latency_summary()
        stats = point.stats
        row = [
            point.personality, f"{point.rate:g}",
            point.run.completed_ops, point.run.failed_ops,
            round(latency["p50"], 1), round(latency["p99"], 1),
            stats.read_retries, stats.corrected_reads,
            stats.uncorrectable_reads, stats.program_fails,
            stats.retired_blocks,
            "RO" if point.read_only else "rw",
        ]
        if clean:
            base = clean[point.personality]
            row += [latency[q] / base[q] for q in ("p99", "p999")]
        rows.append(row)
    print(format_table(headers, rows))
    print("\nrate = per-read corrected-error probability; rarer events "
          "(uncorrectable, program/erase fail) scale down from it")
    if args.faults_out:
        written = write_sweep_csv(points, args.faults_out)
        print(f"wrote {written} sweep rows to {args.faults_out}")


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
        choices=_PAPER + ["all", "fig", "trace", "faults", *_GROUPS,
                          "lint", "sanitize"],
        help=(
            "which figure (or 'headline'/'all') to regenerate — 'fig' "
            "with a figure name as the next argument also works "
            "('repro fig fig4 --parallel 4') — 'trace' to record a span "
            "trace of a figure-shaped workload, 'faults' to sweep "
            "statistical fault rates on both personalities, 'ablations' "
            "to resize each mechanism the paper hypothesizes, 'ycsb' for "
            "YCSB A-F on the KV-SSD vs RocksDB, 'cluster' "
            "to run the sharded multi-device cluster figures "
            "(--smoke for the CI degradation check), 'frontend' to "
            "sweep the open-loop serving frontend over offered load, "
            "'replay' to run the trace-replay figures (working-set "
            "rotation and the TTL+scan mix; --smoke for the CI check), "
            "'lint' to run the simlint per-module static rules "
            "(paths, --list-rules, --sarif go to repro.lint), or "
            "'sanitize' to replay a "
            "figure under the runtime nondeterminism sanitizer "
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
        "--fault-rates", type=fault_rates, default="0,1e-3,1e-2,5e-2",
        metavar="R,R,...",
        help="faults: comma-separated statistical rates to sweep "
             "(default: 0,1e-3,1e-2,5e-2)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=7,
        help="faults: fault-injector RNG seed (default: 7)",
    )
    parser.add_argument(
        "--faults-out", default=None, metavar="PATH",
        help="faults: also write the sweep as CSV to PATH "
             "(parent directories are created)",
    )
    parser.add_argument(
        "--cluster-ops", type=positive_int, default=None, metavar="N",
        help="cluster: operations per tenant stream (default: 300)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="cluster: run only the 2-shard R=2 forced-degradation "
             "smoke check (exits non-zero on any lost write); "
             "replay: tiny cells with liveness gates on rotation, "
             "expiry deletes, and scans",
    )
    parser.add_argument(
        "--replay-ops", type=positive_int, default=None, metavar="N",
        help="replay: base-mix operations per variant (default: 1500)",
    )
    parser.add_argument(
        "--loads", default=None, metavar="K,K,...",
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
    parser.add_argument(
        "--slo-gate", type=float, default=None, metavar="FRAC",
        help="frontend: exit non-zero if the lat class violates its SLO "
             "more than FRAC of the time at the lowest offered load",
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
        # Same pattern: the sanitizer owns its argument surface
        # (--fig/--target, --n-ops, --hash-seeds, --smoke).
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
    # 'all' is the paper figures only: trace, faults and the extension
    # groups are diagnostic passes, not paper-figure regenerations.
    diagnostics = {"trace": _run_trace, "faults": _run_faults}
    reported = 0
    ok = True
    for name in _PAPER if experiment == "all" else [experiment]:
        print(f"\n=== {name} ===")
        # Host-side progress reporting for the human running the CLI —
        # not simulation state, so the wall clock is the right clock.
        started = time.time()  # simlint: disable=SIM001
        if name in diagnostics:
            diagnostics[name](args, runner)
        elif not _run_experiments(name, args, runner):
            ok = False
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
