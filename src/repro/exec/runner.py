"""Process-pool sweep execution with deterministic assembly.

:class:`SweepRunner` executes a :class:`~repro.exec.spec.SweepSpec` in
three steps:

1. **Probe the cache** — every point's content hash is looked up first;
   hits skip computation entirely.
2. **Compute the misses** — inline and in spec order at ``workers=1``,
   or fanned out over a ``multiprocessing`` pool otherwise.  Each worker
   process runs the cell function from scratch (its own simulator, its
   own RNGs), which is exactly the isolation the experiments already
   guarantee — the pool only removes the serialization between them.
3. **Assemble in spec order** — results are placed by point index,
   never completion order, so the assembled list (and everything
   downstream: tables, figures, EXPERIMENTS.md) is byte-identical no
   matter the worker count.  Simulated clocks make point results
   independent of host timing, and pickling round-trips floats exactly,
   so the equality is literal, not approximate.

The wall clock appears in this module on purpose: the runner is host-
side orchestration (how long did the *host* take), never simulation
state.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.errors import ConfigurationError
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache, code_version_salt, point_key
from repro.exec.spec import SweepPoint, SweepSpec


def _compute_point(fn: Any, kwargs: Dict[str, Any]) -> Any:
    """Worker entry: run one cell (module-level so pools can import it)."""
    return fn(**kwargs)


@dataclass(frozen=True)
class ExecReport:
    """What one :meth:`SweepRunner.run` call did."""

    spec_name: str
    points: int
    hits: int
    computed: int
    workers: int
    #: Host wall-clock seconds for the whole run() call.
    elapsed_s: float

    @property
    def hit_rate(self) -> float:
        """Cache hits over total points (0.0 when the spec was empty)."""
        if self.points == 0:
            return 0.0
        return self.hits / self.points

    def format(self) -> str:
        return (
            f"[exec] {self.spec_name}: {self.points} points, "
            f"{self.hits} cached, {self.computed} computed, "
            f"workers={self.workers}, {self.elapsed_s:.2f}s host "
            f"({self.hit_rate * 100.0:.1f}% hit rate)"
        )


class SweepRunner:
    """Executes sweep specs with optional parallelism and caching.

    ``cache=True`` (the default) opens :data:`DEFAULT_CACHE_DIR`;
    ``cache=False`` disables caching; passing a :class:`ResultCache`
    uses it directly (tests point this at a temp dir).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Union[bool, ResultCache] = True,
        cache_dir: Union[str, "os.PathLike[str]", None] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache:
            self.cache = ResultCache(cache_dir or DEFAULT_CACHE_DIR)
        else:
            self.cache = None
        #: One entry per run() call, oldest first.
        self.reports: List[ExecReport] = []

    @property
    def last_report(self) -> Optional[ExecReport]:
        return self.reports[-1] if self.reports else None

    def run(self, spec: SweepSpec) -> List[Any]:
        """Execute ``spec``; returns results in spec order."""
        started = time.perf_counter()  # simlint: disable=SIM001
        sentinel = object()
        results: List[Any] = [sentinel] * len(spec.points)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(spec.points)

        if self.cache is not None:
            salt = code_version_salt()
            for index, point in enumerate(spec.points):
                keys[index] = point_key(point, salt)
                hit, value = self.cache.get(keys[index])
                if hit:
                    results[index] = value
                else:
                    pending.append(index)
        else:
            pending = list(range(len(spec.points)))

        hits = len(spec.points) - len(pending)
        self._compute(spec, pending, results)
        if self.cache is not None:
            for index in pending:
                key = keys[index]
                assert key is not None
                self.cache.put(key, results[index])

        elapsed = time.perf_counter() - started  # simlint: disable=SIM001
        self.reports.append(
            ExecReport(
                spec_name=spec.name,
                points=len(spec.points),
                hits=hits,
                computed=len(pending),
                workers=self.workers,
                elapsed_s=elapsed,
            )
        )
        return results

    def _compute(
        self, spec: SweepSpec, pending: List[int], results: List[Any]
    ) -> None:
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for index in pending:
                results[index] = spec.points[index]()
            return
        # The pool's modules are imported only by a run that fans out.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # The cheapest start method; results do not depend on it.
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        point_workers = min(self.workers, len(pending))
        with ProcessPoolExecutor(max_workers=point_workers, mp_context=context) as pool:
            futures = {
                index: pool.submit(
                    _compute_point,
                    spec.points[index].fn,
                    dict(spec.points[index].kwargs),
                )
                for index in pending
            }
            # Collect by point index — completion order never matters.
            for index, future in futures.items():
                results[index] = future.result()


def execute_spec(
    spec: SweepSpec, runner: Optional[SweepRunner] = None
) -> List[Any]:
    """Run ``spec`` through ``runner``, or inline when no runner is given.

    The inline path is the historical behavior of every experiment loop
    (serial, uncached, in-process); experiments call this so a plain
    ``fig4_value_size_concurrency()`` works exactly as before while
    ``runner=SweepRunner(workers=4)`` fans the same points out.
    """
    if runner is None:
        return [point() for point in spec.points]
    return runner.run(spec)


def grid(
    name: str,
    fn: Callable[..., Any],
    axes: Mapping[str, Iterable[Any]],
    fixed: Optional[Mapping[str, Any]] = None,
    runner: Optional[SweepRunner] = None,
    seed: int = 0,
) -> Dict[Any, Any]:
    """Run ``fn`` over the cartesian product of ``axes`` as sweep ``name``.

    One point per combination, first axis outermost (that is spec order):
    ``fn(**axis_values, **fixed)``, labelled by its coordinates.  Cells
    come back keyed by coordinate — the axis-value tuple, or the bare
    value when there is one axis — so an experiment declares its grid
    once and reads cells by coordinate instead of re-walking it.
    """
    keys: List[Any] = []
    points: List[SweepPoint] = []
    for combo in itertools.product(*axes.values()):
        keys.append(combo if len(combo) > 1 else combo[0])
        label = "/".join(
            f"{value:g}" if isinstance(value, float) else str(value)
            for value in combo
        )
        points.append(SweepPoint(
            label, fn, {**dict(zip(axes, combo)), **(fixed or {})}, seed
        ))
    return dict(zip(keys, execute_spec(SweepSpec(name, tuple(points)), runner)))

