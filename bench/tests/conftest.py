"""Run with ``python3 -m pytest bench/tests -q`` from the repository root.

Tier-1's ``testpaths`` stays ``tests/``; these tests are the benchmark's
own and start real benchmark processes at ``--scale 0.05``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCALE = "0.05"

# ``import bench`` puts ``src/`` on the path for the in-process tests.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))


def bench(*args: str, hashseed: str = "0") -> subprocess.CompletedProcess:
    """One benchmark process, the way the driver starts it."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env.pop("PYTHONPATH", None)
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=170,
    )


def result_of(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stdout + process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def manifest() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
