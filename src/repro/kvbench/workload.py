"""Workload specification and operation stream generation.

A :class:`WorkloadSpec` captures the KVbench knobs the paper sweeps
(Sec. III): request type (insert / update / read / mixed), access pattern
(sequential / uniform / zipfian / sliding window), key and value sizes,
and the number of operations.  :func:`generate_operations` turns a spec
into a deterministic stream of :class:`Operation` items that any store
adapter can execute.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from repro.errors import WorkloadError
from repro.kvbench.distributions import (
    ZipfianGenerator,
    sequential_indices,
    sliding_window_indices,
    uniform_indices,
)
from repro.kvftl.population import KeyScheme


class OpType(enum.Enum):
    """One key-value operation kind."""

    INSERT = "insert"
    UPDATE = "update"
    READ = "read"
    DELETE = "delete"


class Pattern(enum.Enum):
    """Key access order."""

    SEQUENTIAL = "seq"
    UNIFORM = "rand"
    ZIPFIAN = "zipf"
    SLIDING_WINDOW = "window"


class Operation(NamedTuple):
    """One generated request (a tuple: one is built per simulated op).

    Composite requests are the same type: a scan is a ``READ`` with a
    ``scan_length`` (records from ``key`` on), a read-modify-write an
    ``UPDATE`` with ``rmw`` set, so each keeps its point op's latency
    label.  Store adapters execute the point operation;
    :class:`~repro.kvbench.ycsb.YCSBDriver` composes the other two.
    """

    op: OpType
    key: bytes
    key_index: int
    value_bytes: int
    scan_length: int = 0
    rmw: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    """A KVbench-style workload description.

    ``population`` is the number of distinct keys; inserts walk new keys,
    updates and reads draw existing ones according to ``pattern``
    (zipfian at :data:`~repro.kvbench.distributions.ZIPF_THETA`, a
    sliding window 5 % of the population wide).  ``read_fraction`` only matters for ``mixed``
    workloads.
    """

    n_ops: int
    op: str  # 'insert' | 'update' | 'read' | 'mixed' | 'delete'
    pattern: Pattern = Pattern.UNIFORM
    population: Optional[int] = None
    key_scheme: KeyScheme = field(default_factory=KeyScheme)
    value_bytes: int = 4096
    read_fraction: float = 0.5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.n_ops < 1:
            raise WorkloadError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.op not in {"insert", "update", "read", "mixed", "delete"}:
            raise WorkloadError(f"unknown op kind {self.op!r}")
        if self.value_bytes < 0:
            raise WorkloadError(f"value size must be >= 0, got {self.value_bytes}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError("read_fraction outside [0, 1]")
        if self.population is not None and self.population < 1:
            raise WorkloadError(
                f"population must be >= 1, got {self.population}"
            )

    @property
    def effective_population(self) -> int:
        """Distinct keys this workload addresses."""
        if self.population is not None:
            return self.population
        return self.n_ops


def _shuffled_indices(population: int, count: int, seed: int) -> Iterator[int]:
    """A random permutation, repeated if ``count`` exceeds the population.

    Insert phases must visit each key exactly once even in random order
    (an insert that repeats a key is an update); a permutation gives
    random *order* with full coverage.
    """
    rng = random.Random(seed)
    emitted = 0
    while emitted < count:
        order = list(range(population))
        rng.shuffle(order)
        for index in order:
            if emitted >= count:
                return
            yield index
            emitted += 1


def _index_stream(spec: WorkloadSpec) -> Iterator[int]:
    population = spec.effective_population
    if spec.pattern is Pattern.SEQUENTIAL:
        return sequential_indices(population, spec.n_ops)
    if spec.pattern is Pattern.UNIFORM:
        if spec.op == "insert":
            return _shuffled_indices(population, spec.n_ops, spec.seed)
        return uniform_indices(population, spec.n_ops, spec.seed)
    if spec.pattern is Pattern.ZIPFIAN:
        return ZipfianGenerator(population, spec.seed).indices(spec.n_ops)
    if spec.pattern is Pattern.SLIDING_WINDOW:
        return sliding_window_indices(population, spec.n_ops, seed=spec.seed)
    raise WorkloadError(f"unhandled pattern {spec.pattern}")


def generate_operations(spec: WorkloadSpec) -> Iterator[Operation]:
    """Deterministic operation stream for ``spec``.

    Insert workloads visit each key exactly once in pattern order over a
    fresh key space (an insert phase); update/read/delete draw from the
    existing population.  Mixed workloads interleave reads and updates by
    ``read_fraction`` using a dedicated RNG so the key pattern stays
    comparable across mixes.
    """
    mix_rng = random.Random(spec.seed + 7919)
    for index in _index_stream(spec):
        key = spec.key_scheme.key_for(index)
        if spec.op == "insert":
            kind = OpType.INSERT
        elif spec.op == "update":
            kind = OpType.UPDATE
        elif spec.op == "read":
            kind = OpType.READ
        elif spec.op == "delete":
            kind = OpType.DELETE
        else:  # mixed
            kind = (
                OpType.READ
                if mix_rng.random() < spec.read_fraction
                else OpType.UPDATE
            )
        value = spec.value_bytes if kind is not OpType.READ else 0
        yield Operation(kind, key, index, value)
