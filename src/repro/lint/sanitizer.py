"""Runtime nondeterminism sanitizer: ``repro sanitize``.

The static rules ban the nondeterminism sources they can name, one
module at a time; this module catches what a ban cannot — state shared
between runs, hash-order dependence, and anything reached only through
dynamic dispatch, C extensions, or data-dependent control flow.  It
runs a target workload under instrumentation and compares *event-order
fingerprints*:

1. **Event digest** — :func:`repro.sim.engine.observe` feeds every
   dequeued event into a running SHA-256 over ``(fire_at, event-type,
   process-name)`` records, in fire order.  Two runs of a
   deterministic model produce identical digests; the recorded prefix
   localizes the FIRST divergent event by index, timestamp, and name.
2. **Hash-seed variation** — set/dict iteration order for str keys
   depends on ``PYTHONHASHSEED``, which is frozen per interpreter, so
   the sanitizer re-runs the target in two subprocesses with different
   seeds and diffs their digests.  An in-process double run (same
   seed) separately catches stateful leakage between runs.
3. **Tripwires** — while the target runs, ``time.*`` wall clocks and
   the global ``random`` module functions are wrapped to record any
   caller inside the ``repro`` package.  A call from a line carrying a
   ``# simlint: disable=SIM001/SIM002`` comment is blessed (host-side
   timing in the runner, say); an unblessed trip is a finding.
4. **Rig lifetime** — the target runs with the cyclic garbage collector
   disabled, so only reference counting frees what it built.  A
   :class:`~repro.flash.nand.FlashArray` born during the run and still
   alive once it returns is a finding: every device, FTL core and
   background worker of a stack reaches its array, so a rig that was not
   closed (or a component whose ``close`` leaves a worker parked) stays
   resident until a full collection, which a timed phase never reaches.

Targets are either a trace figure (``--fig fig6``, fingerprinted by
:func:`trace_fingerprint`) or an arbitrary callable (``--target
pkg.mod:fn`` or ``--target path/to/file.py:fn``) invoked with no
arguments, fingerprinted by ``repr`` of its return value.  CI's
determinism gate is ``repro sanitize --fig fig6 --n-ops 400``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import linecache
import os
import random as random_module
import subprocess
import sys
import time as time_module
import weakref
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import zip_longest
from traceback import walk_stack
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.cli import positive_int
from repro.flash.nand import FlashArray
from repro.sim.engine import MAX_RECORDS, observe
from repro.trace.run import run_traced, scenarios

#: The two ``PYTHONHASHSEED`` values of the subprocess pair.
HASH_SEEDS = ("0", "1")

#: ``time`` attributes wrapped by the tripwires (wall/CPU clocks).
_TIME_TRIPWIRES = (
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
)

#: ``random`` module-level functions backed by the shared global RNG.
_RANDOM_TRIPWIRES = (
    "random", "uniform", "randint", "randrange", "randbytes", "choice",
    "choices", "shuffle", "sample", "getrandbits", "gauss",
)


@dataclass
class CollectResult:
    """One instrumented run's complete observability record."""

    target: str
    hash_seed: str
    #: SHA-256 over every popped event record, in fire order.
    digest: str
    #: Total events popped (may exceed ``len(records)``).
    total_events: int
    #: First ``MAX_RECORDS`` records as (fire_at, event_type, name).
    records: List[Tuple[float, str, str]]
    #: Serialized observable outcome of the run.
    fingerprint: str
    #: Unblessed wall-clock / global-RNG calls: "file:line via func".
    trips: List[str] = field(default_factory=list)
    #: Flash arrays the run built that outlived it, as their geometry.
    leaked_arrays: List[str] = field(default_factory=list)
    #: Per leaked array: what to do about it, and what holds it.
    leak_notes: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Divergence:
    """Localization of the first difference between two runs."""

    kind: str  # "event" | "tail" | "fingerprint"
    index: Optional[int]
    left: Optional[Tuple[float, str, str]]
    right: Optional[Tuple[float, str, str]]

    def render(self) -> str:
        if self.kind == "fingerprint":
            return ("event order identical but outcome fingerprints "
                    "differ — nondeterminism past the event loop "
                    "(aggregation or serialization)")
        if self.kind == "tail":
            return (f"runs agree on the first {self.index} events, "
                    f"then diverge beyond the recorded prefix "
                    f"({MAX_RECORDS} records)")
        left = _render_record(self.left)
        right = _render_record(self.right)
        return (f"first divergent event at index {self.index}: "
                f"run1 popped {left}, run2 popped {right}")


def _render_record(record: Optional[Tuple[float, str, str]]) -> str:
    if record is None:
        return "<end of run>"
    fire_at, kind, name = record
    label = f" {name!r}" if name else ""
    return f"{kind}{label} @ {fire_at:.3f}us"


# ---------------------------------------------------------------------------
# Instrumented collection
# ---------------------------------------------------------------------------


class _Tripwires:
    """Wrap wall clocks and the global RNG to record repro-side callers."""

    def __init__(self) -> None:
        self.trips: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _note(self, func_label: str) -> None:
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            if (
                filename != __file__
                and f"{os.sep}repro{os.sep}" in filename
                # A module-level frame means a lazy import is running
                # under the tripwires; import-time clock reads in the
                # stdlib are not model nondeterminism.
                and frame.f_code.co_name != "<module>"
            ):
                line = linecache.getline(filename, frame.f_lineno)
                if "simlint: disable" not in line:
                    self.trips.append(
                        f"{filename}:{frame.f_lineno} via {func_label}"
                    )
                return
            frame = frame.f_back

    def _wrap(self, module: Any, name: str, label: str) -> None:
        original = getattr(module, name, None)
        if original is None:
            return
        recorder = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            recorder._note(label)
            return original(*args, **kwargs)

        self._saved.append((module, name, original))
        setattr(module, name, wrapper)

    def install(self) -> None:
        for name in _TIME_TRIPWIRES:
            self._wrap(time_module, name, f"time.{name}")
        for name in _RANDOM_TRIPWIRES:
            self._wrap(random_module, name, f"random.{name}")

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()


def trace_fingerprint(fig: str, n_ops: int) -> str:
    """One traced run's observable outcome as canonical JSON.

    This is the determinism contract of the repo in one string: per-
    personality run results and device-stat deltas, latency summaries,
    and span accounting.  Phase 1 compares two of these from one
    interpreter; Phase 2 additionally varies the interpreter hash seed.
    """
    report = run_traced(fig=fig, n_ops=n_ops)
    document: Dict[str, object] = {"fig": fig, "n_ops": n_ops}
    runs = {}
    for personality, run in sorted(report.runs.items()):
        runs[personality] = {
            "completed_ops": run.completed_ops,
            "failed_ops": run.failed_ops,
            "started_us": run.started_us,
            "finished_us": run.finished_us,
            "device_stats": asdict(run.device_stats)
            if run.device_stats is not None else None,
            "latency": run.latency.summary().as_dict(),
        }
    document["runs"] = runs
    span_counts: Dict[str, int] = {}
    for record in report.collector.records():
        key = f"pid{record.pid}/{record.cat}"
        span_counts[key] = span_counts.get(key, 0) + 1
    document["span_counts"] = span_counts
    document["spans_total"] = len(report.collector.records())
    document["spans_dropped"] = report.collector.dropped
    return json.dumps(document, sort_keys=True, indent=1)


def resolve_callable(spec: str) -> Callable[[], Any]:
    """``pkg.mod:fn`` or ``path/to/file.py:fn`` -> the callable."""
    module_part, sep, func_name = spec.partition(":")
    if not sep or not func_name:
        raise ValueError(
            f"target {spec!r} is not of the form module:function"
        )
    if module_part.endswith(".py"):
        loader_spec = importlib.util.spec_from_file_location(
            "_sanitizer_target", module_part
        )
        if loader_spec is None or loader_spec.loader is None:
            raise ValueError(f"cannot load module from {module_part!r}")
        module = importlib.util.module_from_spec(loader_spec)
        loader_spec.loader.exec_module(module)
    else:
        module = importlib.import_module(module_part)
    target = getattr(module, func_name, None)
    if not callable(target):
        raise ValueError(f"{spec!r} does not name a callable")
    return target


def _live_arrays() -> List[FlashArray]:
    return [obj for obj in gc.get_objects() if isinstance(obj, FlashArray)]


def _leak_note(array: FlashArray, ours: List[object]) -> str:
    """Advice for a leaked ``array``, and the types that hold it: its
    referrers, theirs, and so on four hops up (a frame as its function,
    a module's globals as the module; the sanitizer's own skipped)."""
    skip = {id(ours), *(id(frame) for frame, _ in walk_stack(sys._getframe()))}
    level, levels = [array], []
    for _ in range(4):
        skip.update([id(level), *map(id, level)])
        level = [held for item in level for held in gc.get_referrers(item)
                 if id(held) not in skip][:16]
        levels.append(", ".join(sorted({
            f"{held.f_code.co_name}() frame" if hasattr(held, "f_code")
            else f"module {held['__name__']}" if isinstance(held, dict)
            and "__builtins__" in held else type(held).__name__
            for held in level
        })))
    advice = ("its rig was closed, so drop the reference that keeps it"
              if array.env.closed else "build each rig `with build_rig(...)"
              " as rig:` and end every background worker in close()")
    return f"{advice} — {array.geometry!r}, held by {' ← '.join(filter(None, levels))}"


def collect(target: str, n_ops: int) -> CollectResult:
    """Run ``target`` once under full instrumentation.

    ``target`` is ``fig:<name>`` for trace scenarios or a
    ``module:function`` spec; the event observer, the tripwires and the
    rig-lifetime check cover the whole run either way.
    """
    tripwires = _Tripwires()
    gc.collect()
    earlier = weakref.WeakSet(_live_arrays())
    collecting = gc.isenabled()
    gc.disable()
    tripwires.install()
    try:
        observation = observe(
            partial(trace_fingerprint, target[len("fig:"):], n_ops)
            if target.startswith("fig:")
            else lambda: repr(resolve_callable(target)()),
            record=True,
        )
        leaked = [array for array in _live_arrays() if array not in earlier]
        leaked_arrays = [repr(array.geometry) for array in leaked]
        leak_notes = [_leak_note(array, leaked) for array in leaked]
        del leaked
    finally:
        tripwires.uninstall()
        if collecting:
            gc.enable()
    assert observation.digest is not None and observation.records is not None
    return CollectResult(
        target=target,
        # Recording which hash seed this run executed under is the point
        # of the sanitizer, not leaked nondeterminism.
        hash_seed=os.environ.get(  # simlint: disable=SIM001
            "PYTHONHASHSEED", "<unset>"),
        digest=observation.digest,
        total_events=observation.events,
        records=observation.records,
        fingerprint=observation.value,
        trips=tripwires.trips,
        leaked_arrays=leaked_arrays,
        leak_notes=leak_notes,
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def localize(run1: CollectResult, run2: CollectResult) -> Optional[Divergence]:
    """First divergence between two runs, or None when identical."""
    if run1.digest != run2.digest or run1.total_events != run2.total_events:
        # Both record lists stop at the cap, so one ends early only when
        # its run did.
        pairs = zip_longest(run1.records, run2.records)
        for index, (left, right) in enumerate(pairs):
            if left != right:
                return Divergence("event", index, left, right)
        return Divergence("tail", len(run1.records), None, None)
    if run1.fingerprint != run2.fingerprint:
        return Divergence("fingerprint", None, None, None)
    return None


# ---------------------------------------------------------------------------
# Subprocess orchestration (hash-seed variation)
# ---------------------------------------------------------------------------


def _collect_result_from_json(payload: str) -> CollectResult:
    raw = json.loads(payload)
    raw["records"] = [tuple(record) for record in raw["records"]]
    return CollectResult(**raw)


def collect_in_subprocess(
    target: str, n_ops: int, hash_seed: str
) -> CollectResult:
    """Run :func:`collect` in a child interpreter with a pinned seed.

    ``PYTHONHASHSEED`` is read once at interpreter startup, so varying
    it requires a fresh process.  The child reuses this module's
    ``--collect-json`` mode and streams its :class:`CollectResult`
    back as JSON.
    """
    # The child inherits the host environment; only the seed is varied.
    env = dict(os.environ)  # simlint: disable=SIM001
    env["PYTHONHASHSEED"] = hash_seed
    package_parent = str(os.path.dirname(os.path.dirname(repro.__file__)))
    extra = [package_parent, os.getcwd()]
    prior = env.get("PYTHONPATH")
    if prior:
        extra.append(prior)
    env["PYTHONPATH"] = os.pathsep.join(extra)
    # Only a fig target is sized; a callable target takes no arguments.
    sized = ["--n-ops", str(n_ops)] if target.startswith("fig:") else []
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint.sanitizer",
         "--collect-json", "--target", target, *sized],
        env=env, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"sanitizer child (PYTHONHASHSEED={hash_seed}) failed:\n"
            f"{completed.stderr}"
        )
    return _collect_result_from_json(completed.stdout)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sanitize",
        description="runtime nondeterminism sanitizer: replay a target "
                    "under varied hash seeds with event-order digests "
                    "and wall-clock/RNG tripwires",
    )
    parser.add_argument(
        "--fig", default=None, choices=list(scenarios()),
        help="trace scenario to sanitize (default: fig6)",
    )
    parser.add_argument(
        "--target", default=None,
        help="callable target as module:function or path.py:function "
             "(overrides --fig)",
    )
    parser.add_argument(
        "--n-ops", type=positive_int, default=200, metavar="N",
        help="measured ops per personality for fig targets "
             "(default: 200)",
    )
    parser.add_argument(
        "--collect-json", action="store_true", help=argparse.SUPPRESS,
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None
    )
    target = args.target or f"fig:{args.fig or 'fig6'}"

    if args.collect_json:
        result = collect(target, args.n_ops)
        print(json.dumps(asdict(result)))
        return 0

    failures: List[str] = []

    # Phase 1: in-process double run — catches state leaking between
    # runs inside one interpreter (memo tables, module counters).
    first = collect(target, args.n_ops)
    second = collect(target, args.n_ops)
    divergence = localize(first, second)
    if divergence is not None:
        failures.append(
            f"in-process replay diverged: {divergence.render()}"
        )
    for trip in first.trips:
        failures.append(f"tripwire: {trip}")
    if first.leaked_arrays:
        failures.append(
            f"rig outlived its target: {len(first.leaked_arrays)} flash "
            f"array(s) still alive with gc disabled; {first.leak_notes[0]}"
        )

    # Phase 2: subprocess pair under different hash seeds — catches
    # set/dict-order dependence that one interpreter can never see.
    left = collect_in_subprocess(target, args.n_ops, HASH_SEEDS[0])
    right = collect_in_subprocess(target, args.n_ops, HASH_SEEDS[1])
    divergence = localize(left, right)
    if divergence is not None:
        failures.append(
            f"hash-seed variation (PYTHONHASHSEED {HASH_SEEDS[0]} vs "
            f"{HASH_SEEDS[1]}) diverged: {divergence.render()}"
        )

    if failures:
        print(f"sanitize: FAIL — {target}")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"sanitize: OK — {target}: {first.total_events} events, "
          f"digest {first.digest[:12]}, stable across in-process "
          f"replay and PYTHONHASHSEED {HASH_SEEDS[0]}/{HASH_SEEDS[1]}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
