"""Every script under ``examples/`` runs to completion and prints what
it printed before.

Each one is a standalone program against the public API (rig builders,
the closed-form model, ``format_table``); nothing else would notice if
an API change broke one.  Each runs at its own small size in a fresh
interpreter, as a reader would run it.  Its stdout is deterministic, so
its sha256 is pinned at ``identity.examples.<script>`` of the ledger.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_the_five_examples_are_all_collected(ledger):
    """Each pinned script is collected, and no pin outlives its script."""
    assert [path.stem for path in EXAMPLES] == sorted(ledger.data["identity"]["examples"])
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_prints(script: Path, pin):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    pin(f"identity.examples.{script.stem}",
        hashlib.sha256(result.stdout.encode("utf-8")).hexdigest())
