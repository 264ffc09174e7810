"""``python3 -m bench``: see :mod:`bench.cli`."""

import sys
import time

# Taken before the program under test is imported, so ``setup_s`` covers
# the imports a user of the benchmark pays on every run.
_STARTED = time.perf_counter()

from bench.cli import main  # noqa: E402

sys.exit(main(sys.argv[1:], _STARTED))
