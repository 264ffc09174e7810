"""One guard per guarantee: the planted bugs of the retired whole-program
rules, replayed against the runtime guard that stays.

=======  ================================  ==================================
retired  planted bug                       the one guard, and where it fails
=======  ================================  ==================================
SIM008   wall clock reaching a result      sanitizer tripwire names the line
SIM009   module-level counter in a cell    ``sanitize`` in-process double run
SIM010   set iteration into scheduling     ``sanitize`` PYTHONHASHSEED pair
SIM011   ``set`` / ``Callable`` spec field  ``exec/cache.canonical`` TypeError
SIM012   lambda / nested function cell     ``SweepPoint`` ConfigurationError
=======  ================================  ==================================

One row has no retired rule behind it: the cluster's ``build_plan`` memo
is process-wide state behind a cell *on purpose*, so the double run's
second pass is served the first one's plan.  What makes that sound is
the frozen plan — a cell that edits its program fails at the edit.

Each test runs the bug and its fix.  The three sanitizer rows also pin
*which* check fails, so a guard that stops seeing its bug cannot hide
behind another one that happens to.  (SIM011's other half, ``init=False``
without ``compare=False``, has no runtime twin and stayed a lint rule:
``tests/test_simlint.py``.)
"""

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, FrozenSet, List, Set, Tuple

import pytest

from repro.errors import ConfigurationError
from repro.exec.cache import point_key
from repro.exec.runner import grid
from repro.exec.spec import SweepPoint
from repro.lint import sanitizer

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "sanitizer_targets.py"
FIXTURE_MODULE = "tests.fixtures.sanitizer_targets"


def sanitize(capsys, target: str) -> Tuple[int, List[str], Set[str]]:
    """``repro sanitize --target``: exit status, failure lines, and which
    of its three checks (replay / tripwire / hash-seed) produced them."""
    status = sanitizer.main(["--target", target])
    lines = [
        line.strip() for line in capsys.readouterr().out.splitlines()[1:]
    ]
    return status, lines, {line.split(" ")[0].rstrip(":") for line in lines}


@pytest.fixture
def at_repo_root(monkeypatch):
    """The children resolve ``tests.fixtures...`` from the working directory."""
    monkeypatch.chdir(REPO_ROOT)


def test_wall_clock_reaching_a_result_trips_the_tripwire(capsys, tmp_path):
    # The tripwires police files of a ``repro`` package directory.
    mounted = tmp_path / "repro" / FIXTURE.name
    mounted.parent.mkdir()
    shutil.copy(FIXTURE, mounted)
    status, lines, checks = sanitize(capsys, f"{mounted}:wall_clock_cell")
    assert status == 1
    assert "tripwire" in checks
    stamp_line = 1 + mounted.read_text().splitlines().index(
        "    return time.time()"
    )
    assert f"tripwire: {mounted}:{stamp_line} via time.time" in lines
    assert sanitize(capsys, f"{mounted}:sim_clock_cell")[0] == 0


def test_module_level_counter_in_a_cell_fails_the_double_run(
    capsys, at_repo_root
):
    status, lines, checks = sanitize(
        capsys, f"{FIXTURE_MODULE}:shared_counter_cell"
    )
    assert status == 1
    # Fresh interpreters agree with each other: only the replay sees it.
    assert checks == {"in-process"}
    assert "first divergent event at index" in lines[0]
    assert "run1 popped Process 'sst-" in lines[0]
    assert sanitize(capsys, f"{FIXTURE_MODULE}:own_counter_cell")[0] == 0


def test_set_iteration_into_scheduling_fails_the_hash_seed_pair(capsys):
    status, lines, checks = sanitize(capsys, f"{FIXTURE}:buggy_model")
    assert status == 1
    # One interpreter replays its own set order: only the pair sees it.
    assert checks == {"hash-seed"}
    assert "first divergent event at index" in lines[0]
    assert sanitize(capsys, f"{FIXTURE}:clean_model")[0] == 0


def test_cluster_cell_shares_one_frozen_plan_across_the_double_run(
    capsys, at_repo_root
):
    from repro.cluster.router import build_plan

    build_plan.cache_clear()
    assert sanitize(capsys, f"{FIXTURE_MODULE}:cluster_cell")[0] == 0
    # Run 1 planned (run_cluster's own call); its two shard cells and all
    # three lookups of run 2 were served that plan.
    info = build_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 5, 1)
    # The planted twin fails loudly at the mutation, not silently in run 2.
    with pytest.raises(AttributeError, match="'tuple' object has no attribute"):
        sanitizer.main(["--target", f"{FIXTURE_MODULE}:scribbling_cluster_cell"])
    assert sanitize(capsys, f"{FIXTURE_MODULE}:cluster_cell")[0] == 0


@dataclass(frozen=True)
class _SetSpec:
    excluded: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class _HookSpec:
    hook: Callable[[], int] = int


@dataclass(frozen=True)
class _TupleSpec:
    excluded: Tuple[str, ...] = ()


def _cell(spec: Any) -> int:
    return 0


def test_uncanonical_spec_field_is_refused_by_the_cache_key():
    for spec in (_SetSpec(frozenset({"a"})), _HookSpec()):
        with pytest.raises(TypeError, match="cannot canonicalize"):
            point_key(SweepPoint("x", _cell, {"spec": spec}), "salt")
    assert point_key(SweepPoint("x", _cell, {"spec": _TupleSpec(("a",))}),
                     "salt")


def test_lambda_or_nested_cell_is_refused_before_it_reaches_the_pool():
    def nested(n: int) -> int:
        return n

    with pytest.raises(ConfigurationError, match="module-level"):
        grid("bad", nested, {"n": (1, 2)})
    with pytest.raises(ConfigurationError, match="module-level"):
        SweepPoint("bad", lambda: 1)
    assert grid("ok", _cell, {"spec": (1, 2)}) == {1: 0, 2: 0}
