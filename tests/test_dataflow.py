"""Whole-program rules SIM008–SIM012: one positive and one negative
fixture package per rule, exercised through the real Project build."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.callgraph import Project
from repro.lint.dataflow import DataflowAnalysis, analyze_project, rule_docstring
from repro.lint.engine import lint_tree

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(tmp_path, files, code):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    project = Project.build([tmp_path])
    analysis = DataflowAnalysis(project)
    rule = getattr(analysis, {
        "SIM008": "rule_sim008",
        "SIM009": "rule_sim009",
        "SIM010": "rule_sim010",
        "SIM011": "rule_sim011",
        "SIM012": "rule_sim012",
    }[code])
    return [f for f in rule() if f.code == code]


# -- SIM008: source -> sink through the call graph ---------------------------


def test_sim008_flags_wall_clock_through_call_chain(tmp_path):
    found = findings_for(tmp_path, {
        "clock.py": """
            import time

            def stamp():
                return time.time()
        """,
        "cell.py": """
            from dataclasses import dataclass
            from pkg.clock import stamp

            @dataclass
            class RunResult:
                started: float

            def run_cell():
                return RunResult(started=stamp())
        """,
    }, "SIM008")
    assert len(found) == 1
    finding = found[0]
    assert finding.path.endswith("cell.py")
    assert "time.time" in finding.message
    assert "stamp" in finding.message  # the chain is named
    assert "'started'" in finding.message


def test_sim008_flags_unseeded_rng_and_environ_sinks(tmp_path):
    found = findings_for(tmp_path, {
        "cell.py": """
            import os
            import random
            from dataclasses import dataclass

            @dataclass
            class DeviceStats:
                jitter: float
                host: str

            def run_cell():
                rng = random.Random()
                return DeviceStats(
                    jitter=rng.random(),
                    host=os.environ["HOSTNAME"],
                )
        """,
    }, "SIM008")
    messages = " | ".join(f.message for f in found)
    assert "unseeded Random()" in messages
    assert "os.environ" in messages


def test_sim008_flags_tainted_event_delay(tmp_path):
    found = findings_for(tmp_path, {
        "model.py": """
            import time

            def kick(env):
                delay = time.perf_counter()
                yield env.timeout(delay)
        """,
    }, "SIM008")
    assert len(found) == 1
    assert "event-schedule" in found[0].message


def test_sim008_flags_tainted_service_time(tmp_path):
    """serve(d) schedules d without a Timeout call in between."""
    found = findings_for(tmp_path, {
        "model.py": """
            import time

            def program(env, die):
                busy = time.perf_counter()
                yield die.serve(busy)
        """,
    }, "SIM008")
    assert len(found) == 1
    assert "event-schedule call .serve(...)" in found[0].message


def test_sim008_clean_when_values_come_from_spec_or_sim_clock(tmp_path):
    found = findings_for(tmp_path, {
        "cell.py": """
            import random
            from dataclasses import dataclass

            @dataclass
            class RunResult:
                started: float
                draw: float

            def run_cell(env, seed):
                rng = random.Random(seed)
                return RunResult(started=env.now, draw=rng.random())
        """,
    }, "SIM008")
    assert found == []


# -- SIM009: sweep cell reads mutated module state ---------------------------


def test_sim009_flags_memo_read_in_cell_callee(tmp_path):
    found = findings_for(tmp_path, {
        "cells.py": """
            _memo = {}

            def lookup(n):
                if n not in _memo:
                    _memo[n] = n * 2
                return _memo[n]

            def cell(n):
                return lookup(n)
        """,
        "sweep.py": """
            from repro.exec.spec import SweepPoint
            from pkg.cells import cell

            def build():
                return [SweepPoint(label="x", fn=cell, kwargs={"n": 1})]
        """,
    }, "SIM009")
    assert found, "memo read inside a sweep-cell callee must be flagged"
    assert any("_memo" in f.message for f in found)
    assert any("pkg.cells.cell" in f.message for f in found)


def test_sim009_clean_for_readonly_module_constants(tmp_path):
    found = findings_for(tmp_path, {
        "cells.py": """
            SIZES = {"small": 1, "large": 64}

            def cell(kind):
                return SIZES[kind]
        """,
        "sweep.py": """
            from repro.exec.spec import SweepPoint
            from pkg.cells import cell

            def build():
                return [SweepPoint(label="x", fn=cell, kwargs={})]
        """,
    }, "SIM009")
    assert found == []


# -- SIM010: unordered iteration feeds scheduling ----------------------------


def test_sim010_flags_set_iteration_in_scheduling_function(tmp_path):
    found = findings_for(tmp_path, {
        "model.py": """
            def drain(env, shard):
                yield env.timeout(1.0)

            def start(env):
                for shard in {"a", "b", "c"}:
                    env.process(drain(env, shard))
        """,
    }, "SIM010")
    assert len(found) == 1
    assert "sorted" in found[0].message


def test_sim010_clean_when_sorted_or_order_insensitive(tmp_path):
    found = findings_for(tmp_path, {
        "model.py": """
            def drain(env, shard):
                yield env.timeout(1.0)

            def start(env):
                for shard in sorted({"a", "b", "c"}):
                    env.process(drain(env, shard))

            def tally(env):
                total = sum(len(s) for s in ["x", "y"])
                yield env.timeout(float(total))
        """,
    }, "SIM010")
    assert found == []


def test_sim010_ignores_sets_outside_scheduling_reach(tmp_path):
    found = findings_for(tmp_path, {
        "pure.py": """
            def categorize(items):
                # No event scheduling anywhere near: order is internal.
                return [item for item in {"a", "b"} if item in items]
        """,
    }, "SIM010")
    assert found == []


# -- SIM011: spec fields the cache cannot see --------------------------------


def test_sim011_flags_init_false_without_compare_false(tmp_path):
    found = findings_for(tmp_path, {
        "spec.py": """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class CellSpec:
                n_ops: int
                mode: str = field(init=False, default="fast")
        """,
    }, "SIM011")
    assert len(found) == 1
    assert "mode" in found[0].message


def test_sim011_flags_uncanonicalizable_annotation_on_spec(tmp_path):
    found = findings_for(tmp_path, {
        "spec.py": """
            from dataclasses import dataclass
            from typing import Callable, FrozenSet

            @dataclass(frozen=True)
            class SweepCellSpec:
                excluded: FrozenSet[str]
                hook: Callable[[], int]
        """,
    }, "SIM011")
    assert len(found) == 2
    messages = " | ".join(f.message for f in found)
    assert "excluded" in messages
    assert "hook" in messages


def test_sim011_clean_for_derived_and_tuple_fields(tmp_path):
    found = findings_for(tmp_path, {
        "spec.py": """
            from dataclasses import dataclass, field
            from typing import Tuple

            @dataclass(frozen=True)
            class GeomSpec:
                planes: int
                shards: Tuple[str, ...] = ()
                pages_total: int = field(
                    init=False, repr=False, compare=False, default=0)

            @dataclass
            class Scratch:  # not frozen: not a spec carrier
                names: set = None
        """,
    }, "SIM011")
    assert found == []


# -- SIM012: unpicklable callables toward the pool ---------------------------


def test_sim012_flags_lambda_and_nested_function(tmp_path):
    found = findings_for(tmp_path, {
        "sweep.py": """
            from repro.exec.spec import SweepPoint

            def build(sizes):
                def cell(size):
                    return size * 2
                points = [SweepPoint(label="a", fn=cell)]
                points.append(SweepPoint(label="b", fn=lambda: 1))
                return points
        """,
    }, "SIM012")
    assert len(found) == 2
    messages = " | ".join(f.message for f in found)
    assert "nested function 'cell'" in messages
    assert "a lambda" in messages


def test_sim012_flags_pool_submit_of_nested_function(tmp_path):
    found = findings_for(tmp_path, {
        "pool.py": """
            def fan_out(executor, items):
                def work(item):
                    return item + 1
                return [executor.submit(work, item) for item in items]
        """,
    }, "SIM012")
    assert len(found) == 1
    assert "work" in found[0].message


def test_sim012_clean_for_module_level_functions(tmp_path):
    found = findings_for(tmp_path, {
        "sweep.py": """
            from repro.exec.spec import SweepPoint

            def cell(size):
                return size * 2

            def build(sizes):
                return [
                    SweepPoint(label=str(s), fn=cell, kwargs={"size": s})
                    for s in sizes
                ]
        """,
    }, "SIM012")
    assert found == []


# -- grid(): the sweep builder must not blind the whole-program pass ---------


def test_grid_call_sites_are_sweep_cells_for_sim012_and_sim009(tmp_path):
    files = {
        "cells.py": """
            _memo = {}

            def cell(n):
                if n not in _memo:
                    _memo[n] = n * 2
                return _memo[n]
        """,
        "sweep.py": """
            from repro.exec.runner import grid
            from pkg.cells import cell

            def figure(sizes, runner=None):
                def nested(n):
                    return n
                grid("bad", nested, {"n": sizes}, None, runner)
                return grid("memo", cell, {"n": sizes}, None, runner)
        """,
    }
    nested = findings_for(tmp_path, files, "SIM012")
    assert len(nested) == 1
    assert "nested function 'nested'" in nested[0].message
    (tmp_path / "again").mkdir()
    purity = findings_for(tmp_path / "again", files, "SIM009")
    assert any(
        "_memo" in f.message and "pkg.cells.cell" in f.message for f in purity
    )


def test_shipped_tree_resolves_every_experiment_cell():
    """Before grid() the fig3/4/5, rotation and fault cells were dispatched
    as ``fn=cell_fns[device]`` and invisible to SIM009/SIM012."""
    analysis = DataflowAnalysis(
        Project.build([str(REPO_ROOT / "src" / "repro")])
    )
    cells = {qual.rsplit(".", 1)[-1] for qual in analysis.sweep_cells}
    assert {
        "_fig2_cell", "_fig3_cell", "_fig4_cell", "_fig5_cell",
        "_fig6_scenario_cell", "_fig7_cell", "_fig8_cell",
        "_replay_rotation_cell", "_replay_mix_cell", "_fault_cell",
        "_frontend_load_cell", "_trace_personality_cell", "ycsb_cell",
        "run_shard",
    } <= cells


# -- orchestration ------------------------------------------------------------


def test_lint_tree_applies_suppressions_to_project_findings(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "cell.py").write_text(textwrap.dedent("""
        import time
        from dataclasses import dataclass

        @dataclass
        class RunResult:
            started: float

        def run_cell():
            return RunResult(started=time.time())  # simlint: disable=SIM001,SIM008
    """))
    findings, timings = lint_tree([tmp_path])
    assert findings == []
    labels = [label for label, _ in timings]
    assert labels[0] == "per-module"
    assert set(labels[1:]) == {
        "SIM008", "SIM009", "SIM010", "SIM011", "SIM012",
    }


def test_every_whole_program_rule_documents_itself():
    for code in ("SIM008", "SIM009", "SIM010", "SIM011", "SIM012"):
        doc = rule_docstring(code)
        assert doc is not None
        assert "Bad::" in doc and "Good::" in doc, code


def test_shipped_tree_is_clean_and_fast():
    project = Project.build([str(REPO_ROOT / "src" / "repro")])
    findings, timings = analyze_project(project)
    # Intentional exceptions in the tree carry suppression comments;
    # everything the raw pass reports must be one of those.
    allowed = {("SIM011", "spec.py"), ("SIM008", "sanitizer.py")}
    for finding in findings:
        key = (finding.code, Path(finding.path).name)
        assert key in allowed, finding
    assert sum(seconds for _, seconds in timings) < 10.0
