"""Runtime sanitizer: digest hook, tripwires, and planted-bug localization."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.experiment import lab_geometry
from repro.lint.sanitizer import (
    Divergence,
    collect,
    collect_in_subprocess,
    localize,
    resolve_callable,
)
from repro.sim import engine as sim_engine

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "sanitizer_targets.py"
BUGGY = f"{FIXTURE}:buggy_model"
CLEAN = f"{FIXTURE}:clean_model"

#: The determinism gate's targets as CI runs them: ``repro sanitize``
#: with ``--fig``/``--n-ops`` or ``--target``.
CI_TARGETS = (
    ("fig:fig6", 400),
    ("fig:fig2", 400),
    ("tests.fixtures.sanitizer_targets:cluster_cell", 0),
    ("tests.fixtures.sanitizer_targets:ycsb_cell", 0),
    ("tests.fixtures.sanitizer_targets:frontend_cell", 0),
    ("tests.fixtures.sanitizer_targets:block_cell", 0),
    ("tests.fixtures.sanitizer_targets:failing_ops_cell", 0),
)


def test_pop_observer_sees_every_event_in_fire_order():
    seen = []
    sim_engine.set_pop_observer(lambda now, event: seen.append(
        (now, type(event).__name__)
    ))
    try:
        env = sim_engine.Environment()

        def model(env):
            yield env.timeout(5.0)
            yield env.timeout(3.0)

        env.process(model(env), name="probe")
        env.run()
    finally:
        sim_engine.set_pop_observer(None)
    assert seen, "observer must capture pops"
    times = [now for now, _ in seen]
    assert times == sorted(times)
    assert times[-1] == 8.0
    # Clearing the observer really clears it.
    count = len(seen)
    env2 = sim_engine.Environment()
    env2.process(model(env2), name="again")
    env2.run()
    assert len(seen) == count


@pytest.mark.parametrize("target, n_ops", [(CLEAN, 0), ("fig:fig6", 40)])
def test_collect_is_deterministic_in_process(target, n_ops):
    first = collect(target, n_ops)
    second = collect(target, n_ops)
    assert first.digest == second.digest
    assert first.total_events == second.total_events > 0
    assert first.records == second.records
    assert localize(first, second) is None
    assert first.trips == []


def test_ci_targets_pop_their_pinned_digests(pin):
    """Event count and pop-order digest of every CI sanitizer target.

    The digest covers each popped event's time, type and process label,
    so a change that moves only pop order or renames one process fails
    here even when every golden metric and ``events`` count holds.
    """
    results = {target: collect(target, n_ops) for target, n_ops in CI_TARGETS}
    assert [result.trips for result in results.values()] == [[]] * len(results)
    assert [r.leaked_arrays for r in results.values()] == [[]] * len(results)
    pin("identity.sanitizer", {target: {"total_events": r.total_events, "digest": r.digest}
                               for target, r in results.items()})


def test_resolve_callable_validates_spec():
    assert resolve_callable(CLEAN)() == resolve_callable(CLEAN)()
    with pytest.raises(ValueError):
        resolve_callable("no-colon-here")
    with pytest.raises(ValueError):
        resolve_callable(f"{FIXTURE}:missing_function")


def test_planted_set_order_bug_is_localized_to_named_event():
    """The tentpole acceptance check: vary PYTHONHASHSEED, and the first
    divergent event must be one of the planted process completions."""
    from tests.fixtures.sanitizer_targets import NAMES

    left = collect_in_subprocess(BUGGY, 0, "0")
    right = collect_in_subprocess(BUGGY, 0, "1")
    assert left.hash_seed == "0" and right.hash_seed == "1"
    divergence = localize(left, right)
    assert divergence is not None, \
        "hash-seed variation must expose the set-order bug"
    assert divergence.kind == "event"
    named = {
        record[2]
        for record in (divergence.left, divergence.right)
        if record is not None and record[2]
    }
    assert named, "divergent records must carry process names"
    assert named <= set(NAMES)
    rendered = divergence.render()
    assert "first divergent event" in rendered
    assert any(name in rendered for name in named)


def test_clean_twin_survives_hash_seed_variation():
    left = collect_in_subprocess(CLEAN, 0, "0")
    right = collect_in_subprocess(CLEAN, 0, "1")
    assert localize(left, right) is None


def test_cli_fails_on_buggy_and_passes_on_clean():
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    buggy = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--target", BUGGY],
        cwd=REPO_ROOT, capture_output=True, text=True, env=env,
    )
    assert buggy.returncode == 1, buggy.stdout + buggy.stderr
    assert "FAIL" in buggy.stdout
    assert "first divergent event" in buggy.stdout
    clean = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--target", CLEAN],
        cwd=REPO_ROOT, capture_output=True, text=True, env=env,
    )
    assert clean.returncode == 0, clean.stdout + clean.stderr
    assert "OK" in clean.stdout


def test_a_rig_that_outlives_its_target_is_a_finding():
    """With the cyclic collector off, an unclosed rig's parked workers
    keep it alive past the target; its closed twin is freed on return."""
    unclosed = f"{FIXTURE}:unclosed_rig_cell"
    closed = f"{FIXTURE}:closed_rig_cell"
    leaked = collect(unclosed, 0)
    assert leaked.leaked_arrays == [repr(lab_geometry(4))]
    freed = collect(closed, 0)
    assert (freed.leaked_arrays, freed.fingerprint) == ([], leaked.fingerprint)
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    run = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--target", unclosed],
        cwd=REPO_ROOT, capture_output=True, text=True, env=env,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "rig outlived its target: 1 flash array(s)" in run.stdout
    assert "with build_rig(...)" in run.stdout
    # (Its parked workers hold it: a worker's frame, then its generator.)
    assert "held by " in run.stdout and "generator" in run.stdout


def test_a_closed_rig_held_elsewhere_is_named_by_its_holders():
    """A rig closed in its ``with`` block but kept by a module-level list:
    the finding names that list and gives no ``with`` advice."""
    target = "tests.fixtures.sanitizer_targets:held_rig_cell"
    held = collect(target, 0)
    assert held.leaked_arrays == [repr(lab_geometry(4))]
    note = held.leak_notes[0]
    assert note.startswith("its rig was closed") and "KVSSD" in note
    assert note.endswith("← list ← module tests.fixtures.sanitizer_targets")
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    run = subprocess.run(
        [sys.executable, "-m", "repro", "sanitize", "--target", target],
        cwd=REPO_ROOT, capture_output=True, text=True, env=env,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "its rig was closed, so drop the reference that keeps it" in run.stdout
    assert "with build_rig" not in run.stdout
    assert "← list ← module tests.fixtures.sanitizer_targets" in run.stdout


def test_tripwires_record_unblessed_repro_calls(tmp_path):
    """A wall-clock read from model code trips; a suppressed line is blessed."""
    from repro.lint.sanitizer import _Tripwires

    model_dir = tmp_path / "repro"
    model_dir.mkdir()
    model = model_dir / "hotline.py"
    model.write_text(textwrap.dedent("""
        import time

        def naughty():
            return time.time()

        def blessed():
            return time.time()  # simlint: disable=SIM001
    """))
    naughty = resolve_callable(f"{model}:naughty")
    blessed = resolve_callable(f"{model}:blessed")
    tripwires = _Tripwires()
    tripwires.install()
    try:
        naughty()
        blessed()
    finally:
        tripwires.uninstall()
    assert len(tripwires.trips) == 1
    assert "hotline.py" in tripwires.trips[0]
    assert "time.time" in tripwires.trips[0]
    # Uninstall restores the real clock.
    import time as time_module
    assert time_module.time.__module__ == "time"


def test_divergence_render_variants():
    assert "fingerprints differ" in \
        Divergence("fingerprint", None, None, None).render()
    assert "beyond the recorded prefix" in \
        Divergence("tail", 7, None, None).render()
    event = Divergence(
        "event", 3, (1.5, "Process", "gc"), None
    ).render()
    assert "index 3" in event
    assert "'gc'" in event
    assert "<end of run>" in event
