"""The repository's performance benchmark (see ``bench/README.md``).

Five fixed workloads drive the simulator through its public entry points
and report two metric families that never mix: ``host_*`` is what the
simulator costs on this machine, ``sim_*`` (and plain counts) is what the
modelled device would do and repeats exactly for a given seed.

Run from the repository root: ``python3 -m bench --workload kv_mixed
--seed 1 --seconds 15 --trace 0`` (the driver's form), or the subcommands
``run`` / ``trace`` / ``all`` / ``compare`` / ``selfcheck``.
"""

import sys
from pathlib import Path

#: The benchmark's own directory; everything it writes lands under it.
BENCH_DIR = Path(__file__).resolve().parent
#: Root of the checkout the benchmark measures.
REPO_ROOT = BENCH_DIR.parent

# The driver's command cannot set PYTHONPATH, so the package under test is
# put on the path here; a checkout without ``src/`` then fails at the first
# ``import repro`` and the process exits non-zero without a result line.
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
