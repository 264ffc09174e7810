"""Tests for the experiment CLI."""

import csv
import json
import re
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.core.registry import EXPERIMENTS, Claim
from repro.faults.run import SWEEP_CSV_COLUMNS
from tests.conftest import figure_result


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
    args = build_parser().parse_args(["fig3", "--measured-ops", "123"])
    assert args.measured_ops == 123
    args = build_parser().parse_args(["fig5", "--n-ops", "77"])
    assert args.n_ops == 77


def test_scale_flags_default_to_not_given():
    """A row's function defaults are its recorded scale; the parser must
    not carry a second set."""
    args = build_parser().parse_args(["fig2"])
    dests = {dest for row in EXPERIMENTS.values() for dest in row.cli.values()}
    assert {getattr(args, dest) for dest in dests} == {None}


def test_missed_claim_fails_the_run_only_at_the_recorded_scale(
    capsys, monkeypatch
):
    """A planted impossible band: exit 1 with no scale flag; with one the
    table still prints, under a notice, and cannot fail the run."""
    planted = Claim("planted", "-", "cliff_ratio.async", lo=2.0)
    monkeypatch.setitem(
        EXPERIMENTS, "fig8", replace(EXPERIMENTS["fig8"], claims=(planted,))
    )
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
        ["fig", "fig4", "--parallel", "4", "--no-cache",
         "--cache-dir", "/tmp/alt-cache"]
    )
    assert args.experiment == "fig"
    assert args.target == "fig4"
    assert args.parallel == 4
    assert args.no_cache is True
    assert args.cache_dir == "/tmp/alt-cache"


def test_fig_meta_form_requires_a_figure():
    with pytest.raises(SystemExit, match="name a figure"):
        main(["fig"])


def test_target_is_rejected_outside_the_fig_form():
    with pytest.raises(SystemExit, match="unexpected argument"):
        main(["fig8", "fig4"])


def _usage_error(capsys, argv):
    """The last stderr line of a run that must exit 2 printing nothing."""
    with pytest.raises(SystemExit) as raised:
        main(argv + ["--no-cache"])
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
    (["fig3", "--measured-ops", "0"], "--measured-ops: must be >= 1, got 0"),
    (["trace", "--trace-ops", "0"], "--trace-ops: must be >= 1, got 0"),
    (["replay", "--replay-ops", "0"], "--replay-ops: must be >= 1, got 0"),
    (["frontend", "--frontend-ops", "0"],
     "--frontend-ops: must be >= 1, got 0"),
    (["faults", "--fault-rates", ""], "--fault-rates: needs at least one rate"),
    (["faults", "--fault-rates", "0.5"],
     "--fault-rates: fault rate must be in [0, 0.2], got 0.5"),
])
def test_bad_numbers_are_usage_errors(capsys, argv, message):
    assert _usage_error(capsys, argv).endswith("argument " + message)


def test_a_bad_parallel_default_reads_like_a_bad_parallel_flag(
    capsys, monkeypatch
):
    flag = _usage_error(capsys, ["fig7", "--parallel", "two"])
    monkeypatch.setenv("REPRO_PARALLEL", "two")
    assert _usage_error(capsys, ["fig7"]) == flag
    assert flag.endswith("argument --parallel: invalid positive_int value: 'two'")


def _figure_stdout(capsys, argv):
    """Run the CLI and return stdout minus the wall-clock timing line."""
    assert main(argv) == 0
    out = capsys.readouterr().out
    return re.sub(r"\[(\w+) done in [0-9.]+s\]", r"[\1 done]", out)


def test_fig_parallel_output_is_byte_identical(capsys, tmp_path):
    """`repro fig fig8 --parallel 2` prints exactly what serial prints."""
    base = ["--n-ops", "200", "--cache-dir", str(tmp_path / "cache")]
    serial = _figure_stdout(capsys, ["fig", "fig8", "--parallel", "1"] + base)
    parallel = _figure_stdout(capsys, ["fig", "fig8", "--parallel", "2"] + base)
    assert parallel == serial
    # The second run hit the cache the first one filled.
    assert (tmp_path / "cache").is_dir()


def test_faults_command_prints_table_and_writes_csv(capsys, tmp_path):
    out_csv = tmp_path / "sweep.csv"
    exit_code = main([
        "faults", "--fault-rates", "0,1e-2", "--n-ops", "100",
        "--no-cache", "--faults-out", str(out_csv),
    ])
    captured = capsys.readouterr().out
    assert exit_code == 0
    assert "kv-ssd" in captured and "block-ssd" in captured
    # Rate 0 is in the sweep: tail inflation over it, 1.00 on its own row.
    table = captured.splitlines()
    assert table[2].endswith("mode  p99 x  p999 x")
    assert re.search(r"kv-ssd +0 .* rw +1\.00 +1\.00$", table[4])
    assert f"wrote 4 sweep rows to {out_csv}" in captured
    with out_csv.open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
    assert len(rows) == 1 + 4  # header + 2 personalities x 2 rates
    personalities = {row[0] for row in rows[1:]}
    assert personalities == {"kv-ssd", "block-ssd"}


def test_faults_command_rejects_bad_rates(capsys):
    error = _usage_error(capsys, ["faults", "--fault-rates", "0,banana"])
    assert "argument --fault-rates: could not convert" in error


def test_trace_command_writes_perfetto_file(capsys, tmp_path):
    out_json = tmp_path / "trace.json"
    exit_code = main([
        "trace", "--fig", "fig5", "--trace-ops", "120",
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
        "cluster", "--cluster-ops", "60",
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
    ["cluster", "--cluster-ops", "0"],  # used to be a ConfigurationError
    ["cluster", "--cluster-ops", "-5"],
], ids=["zero", "negative"])
def test_cluster_ops_below_one_is_a_usage_error(capsys, argv):
    error = _usage_error(capsys, argv)
    assert f"argument --cluster-ops: must be >= 1, got {argv[-1]}" in error


@pytest.mark.parametrize("group", ["cluster", "frontend", "replay", "faults"])
def test_a_planted_miss_fails_each_group(capsys, monkeypatch, group):
    """One missed claim on any row of the group exits 1 at the recorded
    scale; the rows are served their mini results, so no run is paid."""
    rows = [row for row in EXPERIMENTS.values() if row.group == group]
    for index, row in enumerate(rows):
        mini = figure_result(row.name)
        mini = replace(mini, values={**mini.values, "one": 1.0})
        claim = (Claim("planted", "-", "one", lo=2.0) if index == 0
                 else Claim("holds", "-", "one", 1.0, 1.0))
        monkeypatch.setitem(EXPERIMENTS, row.name, replace(
            row, fn=lambda runner, mini=mini: mini, claims=(claim,)
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
        "frontend", "--loads", "16,384", "--frontend-ops", "240",
        "--parallel", "2", "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "lat p99" in captured.out and "bulk p99" in captured.out
    assert "saturation knee at 384 kops" in captured.out
    assert re.search(r"lat-class SLO violations at the lowest load +- +0 +yes",
                     captured.out)
    assert "[exec] frontend" in captured.err
    assert "[exec]" not in captured.out


def test_frontend_parallel_output_is_byte_identical(capsys, tmp_path):
    base = ["--loads", "16,128", "--frontend-ops", "160",
            "--cache-dir", str(tmp_path / "cache")]
    serial = _figure_stdout(capsys, ["frontend", "--parallel", "1"] + base)
    parallel = _figure_stdout(capsys, ["frontend", "--parallel", "2"] + base)
    assert parallel == serial


def test_frontend_rejects_bad_loads(capsys):
    """Each a usage error before anything runs; ``nan`` used to print a
    table of ``nan`` latencies and exit 0."""
    for loads, message in [
        ("16,banana", "could not convert string to float: 'banana'"),
        ("-1", "load must be finite and > 0 kops, got -1"),
        ("-4,16", "load must be finite and > 0 kops, got -4"),
        ("0", "load must be finite and > 0 kops, got 0"),
        ("nan", "load must be finite and > 0 kops, got nan"),
        ("16,inf", "load must be finite and > 0 kops, got inf"),
        (",", "needs at least one load"),
    ]:
        error = _usage_error(capsys, ["frontend", f"--loads={loads}"])
        assert error.endswith("argument --loads: " + message), error


def test_parser_accepts_frontend_flags():
    args = build_parser().parse_args(
        ["frontend", "--loads", "8,16", "--frontend-ops", "99",
         "--scheduler", "fifo"]
    )
    assert args.experiment == "frontend"
    assert args.loads == (8.0, 16.0)
    assert args.frontend_ops == 99
    assert args.scheduler == "fifo"


def test_parallel_defaults_from_environment(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL", "3")
    assert build_parser().parse_args(["cluster"]).parallel == 3
    monkeypatch.delenv("REPRO_PARALLEL")
    assert build_parser().parse_args(["cluster"]).parallel == 1


def test_exec_statistics_go_to_stderr_not_stdout(capsys, tmp_path):
    exit_code = main([
        "fig8", "--n-ops", "150", "--parallel", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "[exec] fig8" in captured.err
    assert "[exec]" not in captured.out
