"""Shared helpers for the reproduction benchmarks.

Every bench regenerates one figure (or the headline scalars) of the paper
and prints the same rows/series the figure shows, annotated with the
paper-reported values.  ``pytest benchmarks/ --benchmark-only`` therefore
produces the complete reproduction record (EXPERIMENTS.md mirrors it).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.registry import EXPERIMENTS
from repro.exec.runner import SweepRunner


def figure_runner() -> Optional[SweepRunner]:
    """Sweep runner configured from the environment, or ``None``.

    ``REPRO_PARALLEL=N`` fans each figure's independent points over
    ``N`` worker processes, ``REPRO_NO_CACHE=1`` disables the result
    cache, and ``REPRO_CACHE_DIR=PATH`` relocates it.  With none of
    them set the benches run exactly as before (serial, in-process,
    uncached) — results are byte-identical in every configuration, so
    the knob only changes host wall-clock time.
    """
    workers = int(os.environ.get("REPRO_PARALLEL", "0") or "0")
    no_cache = os.environ.get("REPRO_NO_CACHE", "") not in ("", "0")
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    if workers < 1 and not no_cache and cache_dir is None:
        return None
    return SweepRunner(
        workers=max(1, workers),
        cache=not no_cache,
        cache_dir=cache_dir,
    )


def banner(title: str) -> str:
    """Section header used by every bench's printed report."""
    rule = "=" * len(title)
    return f"\n{rule}\n{title}\n{rule}"


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark's timer.

    The experiments are deterministic simulations — repeated rounds would
    measure the host machine, not the model — so one round is the policy.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)


def run_experiment(benchmark, name, title, **kwargs):
    """Run ``EXPERIMENTS[name]`` once at ``kwargs`` scale through
    :func:`figure_runner`, print its ``render()`` under ``title``, and
    return the result for the bench's paper-shape assertions."""
    fn = EXPERIMENTS[name].fn
    result = run_once(benchmark, lambda: fn(runner=figure_runner(), **kwargs))
    print(banner(title))
    print(result.render())
    return result
