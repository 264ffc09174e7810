"""``python3 -m bench selfcheck``: proof that the benchmark measures.

A known delay is injected into one public method of the program, from
outside, and the benchmark has to find it: in the predicted end-to-end
metric, on the predicted workloads, in the predicted layer's self time,
by the predicted amount (calls x delay, within 25 %), and nowhere in the
simulated metrics.  A workload that never calls the method must count
zero calls.

Injection 1, ``FlashArray.program``: ``kv_gc_writes`` and the ``lsm``
section of ``host_stacks`` program flash all phase long.
Injection 2, ``ResultCache.put``: only ``cluster_rebalance`` goes through
the result cache (four stores in its cold pass); ``kv_mixed`` must not
notice.

The delays are far larger than a real regression would be (400-600 us per
program, 300 ms per cache store): at ``--scale 0.25`` a phase lasts about
a second on a host whose timings wander by 10 %, so each delay is sized to
add one to two phases.  The point is the accounting, which is linear in the
delay.
"""

from __future__ import annotations

import cProfile
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional

from repro.exec.cache import ResultCache
from repro.flash.nand import FlashArray

from bench import harness
from bench.catalog import REFERENCE_SECONDS

TOLERANCE = 0.25

_SPIN_SOURCE = """
def slowed(*args, **kwargs):
    calls[0] += 1
    for _ in range(spins):
        pass
    return original(*args, **kwargs)
"""


def _spins_per_second(profiled: bool = False) -> float:
    """Speed of the delay loop on this host right now (best of three).

    With a profiler attached CPython 3.11 takes its slow dispatch path for
    every instruction, calls or not, so the same loop runs about 1.8x
    slower inside the profiled pass; its speed there is measured the same
    way, with a profiler on.
    """
    profile = cProfile.Profile()
    if profiled:
        profile.enable()
    try:
        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            for _ in range(300_000):
                pass
            best = min(best, time.perf_counter() - started)
    finally:
        profile.disable()
    return 300_000 / best


@contextmanager
def injected_delay(owner: type, attribute: str, delay_s: float) -> Iterator[List[int]]:
    """Replace ``owner.attribute`` by a wrapper that spins ``delay_s`` first.

    The wrapper is compiled under the owner's source file name, so the
    profiler books the spin as self time of the owner's layer.  Yields the
    call counter.
    """
    calls = [0]
    namespace = {
        "original": getattr(owner, attribute),
        "calls": calls,
        "spins": round(delay_s * _spins_per_second()),
    }
    exec(compile(_SPIN_SOURCE, inspect.getsourcefile(owner), "exec"), namespace)
    setattr(owner, attribute, namespace["slowed"])
    try:
        yield calls
    finally:
        setattr(owner, attribute, namespace["original"])


class Check:
    def __init__(self) -> None:
        self.failures = 0

    def expect(self, ok: bool, text: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {text}")
        self.failures += not ok

    def within(self, measured: float, predicted: float, what: str) -> None:
        error = abs(measured - predicted) / predicted
        self.expect(
            error <= TOLERANCE,
            f"{what}: measured {measured:.3f} s, predicted {predicted:.3f} s "
            f"({error:.0%} off, allowed {TOLERANCE:.0%})",
        )


def _probe(
    check: Check, workload: str, layer: str, owner: type, attribute: str,
    delay_s: float, seed: int, scale: float,
    configure: Optional[Callable[[object], None]] = None,
) -> None:
    """Baseline and slowed, untraced and traced, on one workload."""
    print(f"{workload}: {owner.__name__}.{attribute} + {delay_s * 1e6:.0f} us")
    args = (workload, seed, float(REFERENCE_SECONDS), scale)
    base = harness.run(*args, time.perf_counter(), configure)
    base_trace = harness.trace(*args, configure, write_files=False)
    with injected_delay(owner, attribute, delay_s) as calls:
        # Calls are counted inside the timed phases only: set-up (the
        # warm-up of kv_gc_writes programs flash too) is not on the clock.
        probe = lambda: calls[0]  # noqa: E731
        slow = harness.run(*args, time.perf_counter(), configure, probe)
        slow_trace = harness.trace(*args, configure, write_files=False, probe=probe)
    per_repetition = slow.repetitions[0]["probed"]
    per_pass = slow_trace.extra["detail"]["probed_in_profiled_pass"]
    check.expect(base.correct and slow.correct, "both runs correct")
    check.expect(
        per_repetition > 0 and per_pass == per_repetition,
        f"{per_repetition:.0f} calls inside every timed phase",
    )
    check.within(
        slow.extra["quiet_wall_s"] - base.extra["quiet_wall_s"],
        per_repetition * delay_s,
        "timed phase slowed by calls x delay",
    )
    key = f"{layer}.host_self_s"
    profiled_delay_s = delay_s * _spins_per_second() / _spins_per_second(profiled=True)
    check.within(
        slow_trace.metrics[key]["value"] - base_trace.metrics[key]["value"],
        per_pass * profiled_delay_s,
        f"{key} rose by calls x delay ({profiled_delay_s * 1e6:.0f} us under the profiler)",
    )
    check.expect(
        slow.sim_digest == base.sim_digest == slow_trace.sim_digest,
        f"every simulated value and count unchanged (sim_digest {base.sim_digest[:12]})",
    )
    old = base.metrics["host_ops_per_s"]["value"]
    new = slow.metrics["host_ops_per_s"]["value"]
    print(f"  host_ops_per_s {old:.0f} -> {new:.0f} 1/s (after/before {new / old:.3f})")


def _bypass(
    check: Check, workload: str, owner: type, attribute: str, delay_s: float,
    seed: int, scale: float,
) -> None:
    """A workload that never reaches the method must count zero calls."""
    print(f"{workload}: bypasses {owner.__name__}.{attribute}")
    with injected_delay(owner, attribute, delay_s) as calls:
        report = harness.run(
            workload, seed, float(REFERENCE_SECONDS), scale, time.perf_counter()
        )
    check.expect(report.correct, "run correct")
    check.expect(calls[0] == 0, f"{calls[0]} calls")


def _only_lsm(workload) -> None:
    workload.only = "lsm"


def selfcheck(seed: int, scale: float) -> int:
    check = Check()
    # Each delay is sized so that calls x delay is one to two timed phases:
    # a difference of two best-of walls is only good to a few percent of
    # the phase on this host.
    program = (FlashArray, "program")
    _probe(check, "kv_gc_writes", "flash", *program, 400e-6, seed, scale)
    _probe(check, "host_stacks", "flash", *program, 600e-6, seed, scale,
           configure=_only_lsm)
    store = (ResultCache, "put", 300e-3)
    _probe(check, "cluster_rebalance", "exec", *store, seed, scale)
    _bypass(check, "kv_mixed", *store, seed, scale)
    print("selfcheck", "FAILED" if check.failures else "passed")
    return 1 if check.failures else 0
