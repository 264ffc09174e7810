"""Every script under ``examples/`` runs to completion and prints what
it printed before.

Each one is a standalone program against the public API (rig builders,
the closed-form model, ``format_table``); nothing else would notice if
an API change broke one.  Each runs at its own small size in a fresh
interpreter, as a reader would run it.  Its stdout is deterministic, so
its sha256 is pinned in ``tests/golden/examples.json``
(``--regen-golden`` rewrites the entry).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))
PINNED = REPO_ROOT / "tests" / "golden" / "examples.json"


def test_the_five_examples_are_all_collected():
    assert [path.stem for path in EXAMPLES] == [
        "capacity_planning", "gc_pressure_study", "iot_sensor_store",
        "quickstart", "ycsb_comparison",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_prints(script: Path, regen_golden: bool):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    pinned = json.loads(PINNED.read_text(encoding="ascii")) \
        if PINNED.exists() else {}
    if regen_golden:
        pinned[script.stem] = digest
        PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n",
                          encoding="ascii")
        pytest.skip(f"regenerated {script.stem} in {PINNED.name}")
    assert digest == pinned.get(script.stem), (
        f"{script.name} printed something else (sha256 {digest[:12]}); "
        "regenerate goldens if intentional"
    )
