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
from typing import TYPE_CHECKING, Iterator

from repro.errors import DeviceError, WorkloadError
from repro.kvbench.distributions import ZipfianGenerator
from repro.kvbench.workload import Operation, OpType
from repro.kvftl.population import KeyScheme

if TYPE_CHECKING:
    from repro.kvbench.runner import StoreAdapter

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


def generate_ycsb(spec: YCSBSpec) -> Iterator[Operation]:
    """Deterministic YCSB operation stream for ``spec``.

    Workload D's "read latest" is modeled as reads skewed toward the most
    recently inserted region (zipf over recency), exactly YCSB's intent.
    Inserts extend the key space past ``population``.
    """
    mix_rng = random.Random(spec.seed)
    zipf = ZipfianGenerator(spec.population, spec.seed + 1)
    latest = ZipfianGenerator(spec.population, spec.seed + 2, scramble=False)
    read_f, update_f, insert_f, scan_f, _ = spec.mix
    next_insert = spec.population

    def request(kind: OpType, index: int, **composite: int) -> Operation:
        size = 0 if kind is OpType.READ else spec.value_bytes
        key = spec.key_scheme.key_for(index)
        return Operation(kind, key, index, size, **composite)

    for _ in range(spec.n_ops):
        draw = mix_rng.random()
        if draw < read_f:
            if spec.workload == "D":
                # Read latest: rank 0 = newest key so far.
                recency = latest.next_index() % next_insert
                yield request(OpType.READ, (next_insert - 1) - recency)
            else:
                yield request(OpType.READ, zipf.next_index())
        elif draw < read_f + update_f:
            yield request(OpType.UPDATE, zipf.next_index())
        elif draw < read_f + update_f + insert_f:
            yield request(OpType.INSERT, next_insert)
            next_insert += 1
        elif draw < read_f + update_f + insert_f + scan_f:
            yield request(OpType.READ, zipf.next_index(), scan_length=spec.scan_length)
        else:
            yield request(OpType.UPDATE, zipf.next_index(), rmw=True)


class YCSBDriver:
    """Executes YCSB operations against a store adapter.

    Point operations delegate to the adapter.  Scans and read-modify-
    writes are composed here from what the adapter protocol declares,
    which is where the KV-SSD's lack of ordered iteration shows:

    * a scan is the adapter's ordered ``scan(start, n)`` where it has one
      (the LSM store); elsewhere it is emulated — a device prefix
      iteration where the adapter has ``iterate`` (the KV-SSD), then
      ``n`` point reads of the following keys;
    * read-modify-write is a read followed by an update everywhere.
    """

    def __init__(self, adapter: StoreAdapter, spec: YCSBSpec) -> None:
        self.adapter = adapter
        self.spec = spec
        #: The driver is run as an adapter: DeviceStats capture sees through.
        self.device = adapter.device
        self.scans_run = 0
        self.rmws_run = 0

    def execute(self, op: Operation):
        """``op`` as a timed process, composed here if it is composite."""
        if op.scan_length > 0:
            self.scans_run += 1
            if self.adapter.scan is not None:
                return self.adapter.scan(op.key, op.scan_length)
            return self._emulated_scan(op)
        if op.rmw:
            self.rmws_run += 1
            return self._read_modify_write(op)
        return self.adapter.execute(op)

    def _emulated_scan(self, op: Operation):
        adapter, spec = self.adapter, self.spec
        call = adapter.env.call
        total = 0
        if adapter.iterate is not None:
            # Touch the device-side iterator bucket first (the KV-SSD
            # has no ordered scan; Sec. II's buckets are the closest).
            yield from call(adapter.iterate(op.key[:4], limit=1), "iterate")
        last = min(op.key_index + op.scan_length, spec.population)
        for index in range(op.key_index, last):
            key = spec.key_scheme.key_for(index)
            point = Operation(OpType.READ, key, index, 0)
            try:
                nbytes = yield from call(adapter.execute(point))
            except DeviceError:  # a missing tail key ends the scan
                break
            total += nbytes or 0
        return total

    def _read_modify_write(self, op: Operation):
        call = self.adapter.env.call
        read = Operation(OpType.READ, op.key, op.key_index, 0)
        yield from call(self.adapter.execute(read))
        return (yield from call(self.adapter.execute(op)))

    # The process label composites have always run under: digests pin it.
    _emulated_scan.__name__ = _read_modify_write.__name__ = "runner"
