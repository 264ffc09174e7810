"""Tests for the experiment CLI."""

import json
import re
import shlex
from dataclasses import replace
from inspect import signature
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.registry import EXPERIMENTS, Claim
from repro.lint.__main__ import build_parser as lint_parser
from repro.lint.sanitizer import build_parser as sanitize_parser
from tests.conftest import figure_result

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


def test_parser_accepts_every_experiment():
    parser = build_parser()
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                 "headline", "all"):
        args = parser.parse_args([name])
        assert args.experiment == name


def test_parser_rejects_unknown_experiment():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fig99"])


def test_parser_options():
    args = build_parser().parse_args(["fig3", "--n-ops", "123"])
    assert args.n_ops == 123
    args = build_parser().parse_args(["fig5", "--n-ops", "77"])
    assert args.n_ops == 77


def test_scale_flags_default_to_not_given():
    """A row's function defaults are its recorded scale; the parser must
    not carry a second set."""
    assert build_parser().parse_args(["fig2"]).n_ops is None


def test_n_ops_sizes_every_row_that_takes_an_op_count(capsys, monkeypatch):
    """One spelling for every row's op count: ``--n-ops`` reaches each
    row whose function takes ``n_ops``, and only those run off their
    recorded scale; fig6 and fig7 take none and keep theirs."""
    sized = {name for name, row in EXPERIMENTS.items()
             if "n_ops" in signature(row.fn).parameters}
    assert set(EXPERIMENTS) - sized == {"fig6", "fig7"}
    seen = {}
    for row in EXPERIMENTS.values():
        recorded = figure_result(row.name)

        def served(runner, n_ops=None, *, name=row.name, recorded=recorded):
            seen[name] = n_ops
            return recorded

        def unsized(runner, *, name=row.name, recorded=recorded):
            seen[name] = "recorded"
            return recorded

        fn = served if row.name in sized else unsized
        monkeypatch.setitem(EXPERIMENTS, row.name, replace(row, fn=fn, claims=()))
    for command in ("all", "ablations", "ycsb", "cluster", "frontend",
                    "replay", "faults"):
        assert main([command, "--n-ops", "37", "--no-cache"]) == 0
    assert seen == {name: 37 if name in sized else "recorded"
                    for name in EXPERIMENTS}
    assert capsys.readouterr().out.count("not the recorded scale") == len(sized)


def test_missed_claim_fails_the_run_only_at_the_recorded_scale(
    capsys, monkeypatch
):
    """A planted impossible band: exit 1 with no scale flag; with one the
    table still prints, under a notice, and cannot fail the run.  The row
    is served its memoized result, so no run is paid."""
    planted = Claim("planted", "-", "cliff_ratio.async", lo=2.0)
    memo = figure_result("fig8")
    monkeypatch.setitem(EXPERIMENTS, "fig8", replace(
        EXPERIMENTS["fig8"], claims=(planted,),
        fn=lambda runner, n_ops=None: memo,
    ))
    assert main(["fig8", "--no-cache"]) == 1
    recorded = capsys.readouterr().out
    assert main(["fig8", "--n-ops", "300", "--no-cache"]) == 0
    scaled = capsys.readouterr().out
    for out in (recorded, scaled):
        assert re.search(r"planted +- +0\.\d+ +NO\n", out)
    assert "not the recorded scale" in scaled
    assert "not the recorded scale" not in recorded


def test_fig7_command_prints_table(capsys):
    exit_code = main(["fig7"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "KV-SSD" in captured
    assert "Aerospike" in captured
    assert "3.84 TB" in captured


def test_fig8_command_prints_cliff(capsys):
    exit_code = main(["fig8", "--n-ops", "300"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "cliff past 16B" in captured


def test_fig8_refuses_more_ops_than_its_smallest_keys_can_name(capsys, tmp_path):
    """4 B keys name 10,000 pairs: one more is one stderr line and a
    non-zero exit before any cell runs (it used to be a traceback out of
    the first cell); the recorded scale, 1,200, still runs."""
    assert main(["fig8", "--n-ops", "10001", "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "repro: error: fig8: 4 B keys name at most 10,000 pairs, "
        "so n_ops must be <= 10,000 (got 10,001)"
    ]
    assert "cliff past 16B" not in captured.out
    assert main(["fig8", "--n-ops", "1200", "--cache-dir", str(tmp_path)]) == 0
    assert "cliff past 16B" in capsys.readouterr().out


def test_parser_accepts_parallel_and_cache_flags():
    args = build_parser().parse_args(
        ["fig4", "--parallel", "4", "--no-cache",
         "--cache-dir", "/tmp/alt-cache"]
    )
    assert args.experiment == "fig4"
    assert args.parallel == 4
    assert args.no_cache is True
    assert args.cache_dir == "/tmp/alt-cache"


def test_parallel_defaults_to_serial_whatever_the_environment(monkeypatch):
    """``--parallel`` is the one way to set the worker count."""
    monkeypatch.setenv("REPRO_PARALLEL", "3")
    assert build_parser().parse_args(["cluster"]).parallel == 1


def _usage_error(capsys, argv):
    """The last stderr line of a run that must exit 2 printing nothing."""
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()[-1]


def test_parallel_must_be_positive(capsys):
    error = _usage_error(capsys, ["fig8", "--parallel", "0"])
    assert error.endswith("argument --parallel: must be >= 1, got 0")


@pytest.mark.parametrize("argv, message", [
    # Each used to be a traceback out of a spec's validation.
    (["fig5", "--n-ops", "0"], "--n-ops: must be >= 1, got 0"),
    (["fig5", "--n-ops", "-5"], "--n-ops: must be >= 1, got -5"),
    (["sanitize", "--n-ops", "0"], "--n-ops: must be >= 1, got 0"),
    (["sanitize", "--n-ops", "-5"], "--n-ops: must be >= 1, got -5"),
])
def test_bad_numbers_are_usage_errors(capsys, argv, message):
    assert _usage_error(capsys, argv).endswith("argument " + message)


def _figure_stdout(capsys, argv):
    """Run the CLI and return stdout minus the wall-clock timing line."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    return re.sub(r"\[(\w+) done in [0-9.]+s\]", r"[\1 done]", out)


def test_fig_parallel_output_is_byte_identical(capsys, tmp_path):
    """`repro fig8 --parallel 2` prints exactly what serial prints."""
    base = ["--n-ops", "200", "--cache-dir", str(tmp_path / "cache")]
    serial = _figure_stdout(capsys, ["fig8", "--parallel", "1"] + base)
    parallel = _figure_stdout(capsys, ["fig8", "--parallel", "2"] + base)
    assert parallel == serial
    # The second run hit the cache the first one filled.
    assert (tmp_path / "cache").is_dir()


def test_faults_command_prints_table(capsys):
    exit_code = main(["faults", "--n-ops", "100", "--no-cache"])
    captured = capsys.readouterr().out
    assert exit_code == 0
    # Rate 0 is in the sweep: tail inflation over it, 1.00 on its own row.
    table = captured.splitlines()
    assert table[2].endswith("mode  p99 x  p999 x")
    assert re.search(r"kv-ssd +0 .* rw +1\.00 +1\.00$", table[4])
    # 2 personalities x the recorded scale's 4 rates.
    assert len(re.findall(r"^ *(kv|block)-ssd ", captured, re.M)) == 8


def test_trace_command_writes_perfetto_file(capsys, tmp_path):
    out_json = tmp_path / "trace.json"
    exit_code = main([
        "trace", "--fig", "fig5", "--n-ops", "120",
        "--no-cache", "--out", str(out_json),
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "scenario: fig5" in captured
    assert "[kv-ssd]" in captured and "[block-ssd]" in captured
    document = json.loads(out_json.read_text())
    assert document["traceEvents"]
    assert document["displayTimeUnit"] == "ms"


@pytest.mark.parametrize("command", ["trace", "sanitize"])
def test_unknown_trace_scenario_is_a_usage_error(capsys, command):
    """Not a ConfigurationError traceback from inside the traced run."""
    with pytest.raises(SystemExit) as raised:
        main([command, "--fig", "nope"])
    assert raised.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "argument --fig: invalid choice: 'nope'" in error
    assert "fig2" in error and "fig8" in error


def test_cluster_command_end_to_end(capsys, tmp_path):
    """The three cluster figures and their claims tables, shard cells
    fanned over a 2-way worker pool."""
    exit_code = main([
        "cluster", "--n-ops", "60",
        "--parallel", "2", "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "scaling 2->8 shards" in captured
    assert "zero-lost=True" in captured
    assert "-- replication-factor cost --" in captured
    assert captured.count("not the recorded scale") == 3
    assert re.search(r"rebalance loses an acknowledged write .* 0 +yes\n", captured)


@pytest.mark.parametrize("argv", [
    ["cluster", "--n-ops", "0"],  # used to be a ConfigurationError
    ["cluster", "--n-ops", "-5"],
], ids=["zero", "negative"])
def test_cluster_ops_below_one_is_a_usage_error(capsys, argv):
    error = _usage_error(capsys, argv)
    assert f"argument --n-ops: must be >= 1, got {argv[-1]}" in error


@pytest.mark.parametrize("group", ["cluster", "frontend", "replay", "faults"])
def test_a_planted_miss_fails_each_group(capsys, monkeypatch, group):
    """One missed claim on any row of the group exits 1 at the recorded
    scale; the rows are served their memoized results, so no run is paid."""
    rows = [row for row in EXPERIMENTS.values() if row.group == group]
    for index, row in enumerate(rows):
        recorded = figure_result(row.name)
        planted = replace(recorded, values={**recorded.values, "one": 1.0})
        claim = (Claim("planted", "-", "one", lo=2.0) if index == 0
                 else Claim("holds", "-", "one", 1.0, 1.0))
        monkeypatch.setitem(EXPERIMENTS, row.name, replace(
            row, fn=lambda runner, planted=planted: planted, claims=(claim,)
        ))
    assert main([group, "--no-cache"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"planted +- +1 +NO\n", out)
    assert out.count(" yes\n") == len(rows) - 1


def test_frontend_command_end_to_end(capsys, tmp_path):
    """`repro frontend` prints the latency-vs-load table, the knee line,
    the claims table, and routes exec statistics to stderr — under a
    2-way worker pool."""
    exit_code = main([
        "frontend", "--n-ops", "240",
        "--parallel", "2", "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "lat p99" in captured.out and "bulk p99" in captured.out
    assert "saturation knee at 512 kops" in captured.out
    assert re.search(r"lat-class SLO violations at the lowest load +- +0 +yes",
                     captured.out)
    assert "[exec] frontend" in captured.err
    assert "[exec]" not in captured.out


def test_frontend_parallel_output_is_byte_identical(capsys, tmp_path):
    base = ["--n-ops", "160", "--cache-dir", str(tmp_path / "cache")]
    serial = _figure_stdout(capsys, ["frontend", "--parallel", "1"] + base)
    parallel = _figure_stdout(capsys, ["frontend", "--parallel", "2"] + base)
    assert parallel == serial


def test_exec_statistics_go_to_stderr_not_stdout(capsys, tmp_path):
    exit_code = main([
        "fig8", "--n-ops", "150", "--parallel", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "[exec] fig8" in captured.err
    assert "[exec]" not in captured.out


def _run_scripts(text):
    """Each ``run:`` value of a workflow as its lines; a folded (``>``)
    block is one line, joined as YAML joins it."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"^( *)(?:- )?run: *(.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2)
        if value not in ("|", "|-", ">", ">-"):
            yield [value]
            continue
        body = []
        for follow in lines[index + 1:]:
            if follow.strip() and len(follow) - len(follow.lstrip()) <= indent:
                break
            body.append(follow.strip())
        yield [" ".join(body)] if value.startswith(">") else body


def _ci_repro_commands():
    """The argv after ``python -m repro`` (or ``repro.cli``) of every CI
    command line that runs one."""
    commands = []
    for script in _run_scripts(CI.read_text()):
        for line in script:
            match = re.search(r"\bpython3? -m repro(?:\.cli)? +(.*)", line)
            if match:
                commands.append(shlex.split(match.group(1)))
    return commands


def test_every_ci_command_line_parses():
    """A flag change that would break a CI step fails here first: each
    command goes through the parser ``main`` routes it to."""
    commands = _ci_repro_commands()
    assert {argv[0] for argv in commands} >= {
        "cluster", "frontend", "replay", "faults", "trace", "lint", "sanitize",
    }
    routed = {"lint": lint_parser, "sanitize": sanitize_parser}
    for argv in commands:
        if argv[0] in routed:
            parser, rest = routed[argv[0]](), argv[1:]
        else:
            parser, rest = build_parser(), argv
        try:
            parser.parse_args(rest)
        except SystemExit:
            pytest.fail(f"CI runs `repro {shlex.join(argv)}`, which no "
                        "longer parses")
