"""Seeded generators for the regimes static specs can't express.

:class:`~repro.kvbench.workload.WorkloadSpec` describes stationary
distributions; these generators produce *time-varying* trace-record
streams (see :mod:`repro.kvbench.traces`):

* :func:`generate_churn` — hot-key churn: the working set is a
  contiguous window over the population that rotates on a fixed op
  schedule, the regime where a location-agnostic hash index and a
  locality-dependent block stack should diverge;
* :func:`generate_expiry` — TTL writes with the implied deletes
  *materialized* into the stream at their expiry timestamps, so replay
  needs no clock of its own;
* :func:`generate_scan_mix` — point ops mixed with prefix scans that
  exercise the kvftl iterator buckets.

Every generator is driven entirely by its spec's seed: same spec, same
byte stream, on any interpreter with any ``PYTHONHASHSEED`` — the
property suite pins this via the sanitizer's subprocess collector.
All outputs are timestamp-ordered, so they compose with
:func:`repro.kvbench.traces.merge_traces` and
:func:`repro.kvbench.traces.write_trace` directly.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.errors import WorkloadError
from repro.kvbench.traces import INTERARRIVAL_US, TraceRecord
from repro.kvftl.population import KeyScheme

#: Records per scan of a scan mix.
SCAN_MIX_LENGTH = 16


@dataclass(frozen=True)
class ChurnSpec:
    """Hot-key churn: a rotating contiguous working-set window.

    Ops 0..rotate_every_ops-1 hit keys [0, working_set); the next batch
    hits [working_set, 2*working_set) mod population, and so on — the
    whole hot set is replaced at once, the worst case for any locality
    assumption baked into data placement.  ``rotate_every_ops=0`` pins
    the window in place (the stationary control arm).  Half the ops are
    reads, one every 100 us.
    """

    n_ops: int
    population: int
    working_set: int
    rotate_every_ops: int = 0
    value_bytes: int = 4096
    key_scheme: KeyScheme = field(default_factory=KeyScheme)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise WorkloadError(f"n_ops must be >= 1, got {self.n_ops}")
        if not 1 <= self.working_set <= self.population:
            raise WorkloadError(
                f"working_set must be in [1, population], got "
                f"{self.working_set} of {self.population}"
            )
        if self.rotate_every_ops < 0:
            raise WorkloadError("rotate_every_ops must be >= 0")


def generate_churn(spec: ChurnSpec) -> Iterator[TraceRecord]:
    """Timestamp-ordered churn records (reads and updates only).

    Keys are drawn uniformly from the current window, so the caller must
    prefill the full population before replay (every record addresses an
    existing key).
    """
    rng = random.Random(spec.seed)
    window_start = 0
    for position in range(spec.n_ops):
        if (
            spec.rotate_every_ops
            and position
            and position % spec.rotate_every_ops == 0
        ):
            window_start = (window_start + spec.working_set) % spec.population
        offset = rng.randrange(spec.working_set)
        index = (window_start + offset) % spec.population
        is_read = rng.random() < 0.5
        yield TraceRecord(
            timestamp_us=position * INTERARRIVAL_US,
            op="read" if is_read else "update",
            key=spec.key_scheme.key_for(index),
            size=0 if is_read else spec.value_bytes,
        )


@dataclass(frozen=True)
class ExpirySpec:
    """TTL workload: writes carry a TTL; expiry deletes are injected.

    Each write (re)arms the key's TTL.  When a key's newest TTL lapses,
    a ``delete`` record is emitted at the expiry timestamp; a rewrite
    before expiry supersedes the pending delete (generation counter).
    Reads only ever target live keys, so replay never read-misses.  Half
    the foreground ops are 4 KiB writes.
    """

    n_ops: int
    population: int
    ttl_us: float
    interarrival_us: float = 100.0
    key_scheme: KeyScheme = field(default_factory=KeyScheme)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise WorkloadError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.population < 1:
            raise WorkloadError("population must be >= 1")
        if self.ttl_us <= 0.0:
            raise WorkloadError(f"ttl_us must be > 0, got {self.ttl_us}")
        if self.interarrival_us <= 0.0:
            raise WorkloadError("interarrival_us must be > 0")


def generate_expiry(spec: ExpirySpec) -> Iterator[TraceRecord]:
    """Foreground ops plus materialized expiry deletes, in time order.

    ``n_ops`` counts foreground operations; injected deletes come on
    top.  The stream is self-contained: every read and delete names a
    key a preceding insert created.
    """
    rng = random.Random(spec.seed)
    # (expiry_ts, arm_seq, index): arm_seq both breaks timestamp ties
    # deterministically and orders same-instant expirations by arming.
    pending: List[Tuple[float, int, int]] = []
    armed: Dict[int, int] = {}
    live: List[int] = []
    live_pos: Dict[int, int] = {}
    arm_seq = 0

    def _expire_until(now: float) -> Iterator[TraceRecord]:
        while pending and pending[0][0] <= now:
            expiry_ts, seq, index = heapq.heappop(pending)
            if armed.get(index) != seq:
                continue  # superseded by a rewrite
            del armed[index]
            position = live_pos.pop(index)
            last = live.pop()
            if last != index:
                live[position] = last
                live_pos[last] = position
            yield TraceRecord(
                timestamp_us=expiry_ts,
                op="delete",
                key=spec.key_scheme.key_for(index),
                size=0,
            )

    for position in range(spec.n_ops):
        now = position * spec.interarrival_us
        yield from _expire_until(now)
        if live and rng.random() >= 0.5:
            index = live[rng.randrange(len(live))]
            yield TraceRecord(now, "read", spec.key_scheme.key_for(index), 0)
            continue
        index = rng.randrange(spec.population)
        fresh = index not in live_pos
        if fresh:
            live_pos[index] = len(live)
            live.append(index)
        arm_seq += 1
        armed[index] = arm_seq
        heapq.heappush(pending, (now + spec.ttl_us, arm_seq, index))
        yield TraceRecord(
            timestamp_us=now,
            op="insert" if fresh else "update",
            key=spec.key_scheme.key_for(index),
            size=4096,
            ttl_us=spec.ttl_us,
        )
    # Drain: a trace should leave the store the way a TTL cache would.
    yield from _expire_until(float((spec.n_ops + 1)) * spec.interarrival_us
                             + spec.ttl_us)


@dataclass(frozen=True)
class ScanMixSpec:
    """Point reads/updates mixed with prefix scans.

    Scans address the key scheme's 4-byte prefix buckets (the KV-FTL's
    only iteration primitive); a scan's length, :data:`SCAN_MIX_LENGTH`,
    is carried in the record's size field.  The point ops are half reads,
    half 4 KiB updates, one op every 100 us.  Prefill the population
    before replay.
    """

    n_ops: int
    population: int
    scan_fraction: float = 0.2
    key_scheme: KeyScheme = field(default_factory=KeyScheme)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise WorkloadError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.population < 1:
            raise WorkloadError("population must be >= 1")
        if not 0.0 <= self.scan_fraction <= 1.0:
            raise WorkloadError("scan_fraction outside [0, 1]")


def generate_scan_mix(spec: ScanMixSpec) -> Iterator[TraceRecord]:
    """Timestamp-ordered mix of scans and point ops."""
    rng = random.Random(spec.seed)
    for position in range(spec.n_ops):
        now = position * INTERARRIVAL_US
        index = rng.randrange(spec.population)
        key = spec.key_scheme.key_for(index)
        draw = rng.random()
        if draw < spec.scan_fraction:
            yield TraceRecord(now, "scan", key, SCAN_MIX_LENGTH)
        elif rng.random() < 0.5:
            yield TraceRecord(now, "read", key, 0)
        else:
            yield TraceRecord(now, "update", key, 4096)
