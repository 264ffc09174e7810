"""YCSB-style workloads (the paper's future-work benchmark).

The paper's methodology rejects YCSB only because no database engine
interfacing YCSB with the KV-SSD existed at the time (Sec. III), and its
conclusion lists exploring "real-world workloads and benchmarks, such as
YCSB" as future work.  In this reproduction the store adapters *are* the
engine, so the standard core workloads run directly:

========  =======================================  =====================
workload  operation mix                            request distribution
========  =======================================  =====================
A         50% read / 50% update                    zipfian
B         95% read / 5% update                     zipfian
C         100% read                                zipfian
D         95% read / 5% insert ("read latest")     latest-skewed reads
E         95% scan / 5% insert                     zipfian scan starts
F         50% read / 50% read-modify-write         zipfian
========  =======================================  =====================

Scans (workload E) deserve a caveat the paper would have cared about:
the KV-SSD has no ordered iteration — only 4-byte-prefix iterator
buckets — so a "scan" against the KV device walks bucket pages and
filters, whereas the LSM store serves genuine ordered ranges.  The
:mod:`examples` and the ``ycsb`` experiment surface exactly this contrast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DeviceError, WorkloadError
from repro.kvbench.distributions import ZipfianGenerator
from repro.kvbench.workload import Operation, OpType
from repro.kvftl.population import KeyScheme

#: The YCSB default record: 10 fields x 100 B.
YCSB_VALUE_BYTES = 1000
#: Default scan length (records per scan).
YCSB_SCAN_LENGTH = 50


@dataclass(frozen=True)
class YCSBSpec:
    """One YCSB core-workload configuration."""

    workload: str  # 'A'..'F'
    n_ops: int
    population: int
    key_scheme: KeyScheme = field(
        default_factory=lambda: KeyScheme(prefix=b"user", digits=12)
    )
    value_bytes: int = YCSB_VALUE_BYTES
    scan_length: int = YCSB_SCAN_LENGTH
    zipf_theta: float = 0.99
    seed: int = 1

    #: (read, update, insert, scan, rmw) fractions per core workload.
    MIXES = {
        "A": (0.50, 0.50, 0.00, 0.00, 0.00),
        "B": (0.95, 0.05, 0.00, 0.00, 0.00),
        "C": (1.00, 0.00, 0.00, 0.00, 0.00),
        "D": (0.95, 0.00, 0.05, 0.00, 0.00),
        "E": (0.00, 0.00, 0.05, 0.95, 0.00),
        "F": (0.50, 0.00, 0.00, 0.00, 0.50),
    }

    def __post_init__(self) -> None:
        if self.workload not in self.MIXES:
            raise WorkloadError(
                f"unknown YCSB workload {self.workload!r}; pick A-F"
            )
        if self.n_ops < 1 or self.population < 1:
            raise WorkloadError("n_ops and population must be >= 1")
        if self.scan_length < 1:
            raise WorkloadError("scan_length must be >= 1")

    @property
    def mix(self):
        """The workload's operation-fraction tuple."""
        return self.MIXES[self.workload]


@dataclass(frozen=True)
class YCSBOperation:
    """A YCSB request: a plain Operation plus scan metadata."""

    base: Operation
    scan_length: int = 0

    @property
    def is_scan(self) -> bool:
        return self.scan_length > 0

    # Delegates so the standard workload runner can drive YCSB streams.

    @property
    def op(self) -> OpType:
        return self.base.op

    @property
    def key(self) -> bytes:
        return self.base.key

    @property
    def key_index(self) -> int:
        return self.base.key_index

    @property
    def value_bytes(self) -> int:
        return self.base.value_bytes


def generate_ycsb(spec: YCSBSpec) -> Iterator[YCSBOperation]:
    """Deterministic YCSB operation stream for ``spec``.

    Workload D's "read latest" is modeled as reads skewed toward the most
    recently inserted region (zipf over recency), exactly YCSB's intent.
    Inserts extend the key space past ``population``.
    """
    mix_rng = random.Random(spec.seed)
    zipf = ZipfianGenerator(spec.population, spec.zipf_theta, spec.seed + 1)
    latest = ZipfianGenerator(
        spec.population, spec.zipf_theta, spec.seed + 2, scramble=False
    )
    read_f, update_f, insert_f, scan_f, rmw_f = spec.mix
    next_insert = spec.population
    inserted = 0

    for _ in range(spec.n_ops):
        draw = mix_rng.random()
        if draw < read_f:
            if spec.workload == "D":
                # Read latest: rank 0 = newest key so far.
                recency = latest.next_index() % (spec.population + inserted)
                index = (spec.population + inserted - 1) - recency
            else:
                index = zipf.next_index()
            yield YCSBOperation(
                Operation(OpType.READ, spec.key_scheme.key_for(index), index, 0)
            )
        elif draw < read_f + update_f:
            index = zipf.next_index()
            yield YCSBOperation(
                Operation(
                    OpType.UPDATE,
                    spec.key_scheme.key_for(index),
                    index,
                    spec.value_bytes,
                )
            )
        elif draw < read_f + update_f + insert_f:
            index = next_insert
            next_insert += 1
            inserted += 1
            yield YCSBOperation(
                Operation(
                    OpType.INSERT,
                    spec.key_scheme.key_for(index),
                    index,
                    spec.value_bytes,
                )
            )
        elif draw < read_f + update_f + insert_f + scan_f:
            index = zipf.next_index()
            yield YCSBOperation(
                Operation(OpType.READ, spec.key_scheme.key_for(index), index, 0),
                scan_length=spec.scan_length,
            )
        else:  # read-modify-write
            index = zipf.next_index()
            yield YCSBOperation(
                Operation(
                    OpType.UPDATE,
                    spec.key_scheme.key_for(index),
                    index,
                    spec.value_bytes,
                ),
                scan_length=-1,  # marker consumed by the driver below
            )


class YCSBDriver:
    """Executes YCSB operations against a store adapter.

    Point operations delegate to the adapter.  Scans and read-modify-
    writes are composed here from the primitive operations each stack
    offers, which is where the KV-SSD's lack of ordered iteration shows:

    * LSM adapter: a scan is ``scan(start, n)`` on the store (ordered);
    * KV adapter: a scan is a device prefix-iteration plus ``n`` point
      reads of the following keys (the application must emulate order);
    * read-modify-write is a read followed by an update everywhere.
    """

    def __init__(self, adapter, spec: YCSBSpec) -> None:
        self.adapter = adapter
        self.spec = spec
        # Surface the wrapped adapter's device so the runner's DeviceStats
        # capture works through the YCSB layer too.
        self.device = getattr(adapter, "device", None)
        self.scans_run = 0
        self.rmws_run = 0

    def execute(self, op):
        # Trace replay feeds mixed streams: plain Operations for point
        # ops, YCSBOperations only where scan metadata is needed.
        scan_length = getattr(op, "scan_length", 0)
        if scan_length > 0:
            return self._scan(op)
        if scan_length == -1:
            return self._read_modify_write(op)
        return self.adapter.execute(getattr(op, "base", op))

    def _scan(self, op: YCSBOperation):
        self.scans_run += 1
        store = getattr(self.adapter, "store", None)
        if store is not None and hasattr(store, "scan"):
            return store.scan(op.base.key, op.scan_length)
        return self._emulated_scan(op)

    def _emulated_scan(self, op: YCSBOperation):
        spec = self.spec

        def runner(env):
            total = 0
            api = getattr(self.adapter, "api", None)
            if api is not None and hasattr(api, "iterate"):
                # Touch the device-side iterator bucket first (the KV-SSD
                # has no ordered scan; Sec. II's buckets are the closest).
                yield from env.call(api.iterate(op.base.key[:4], limit=1))
            for step in range(spec.scan_length):
                index = op.base.key_index + step
                if index >= spec.population:
                    break
                point = Operation(
                    OpType.READ, spec.key_scheme.key_for(index), index, 0
                )
                try:
                    nbytes = yield from env.call(self.adapter.execute(point))
                except DeviceError:  # a missing tail key ends the scan
                    break
                total += nbytes or 0
            return total

        # The runner calls execute(op) and runs the returned generator
        # via env.call; grab the env lazily from the adapter's store.
        env = _env_of(self.adapter)
        return runner(env)

    def _read_modify_write(self, op: YCSBOperation):
        self.rmws_run += 1

        def runner(env):
            read = Operation(OpType.READ, op.base.key, op.base.key_index, 0)
            yield from env.call(self.adapter.execute(read))
            nbytes = yield from env.call(self.adapter.execute(op.base))
            return nbytes

        return runner(_env_of(self.adapter))


def _env_of(adapter):
    """The simulation environment behind any store adapter."""
    for attribute in ("api", "store"):
        owner = getattr(adapter, attribute, None)
        if owner is not None and hasattr(owner, "env"):
            return owner.env
    raise WorkloadError(f"cannot locate environment of {adapter!r}")
