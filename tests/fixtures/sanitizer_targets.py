"""Sanitizer test targets: planted determinism bugs and their clean twins.

``buggy_model`` assigns each process a delay by *enumeration order of a
set of string names*.  Set iteration order for strings follows the
sipHash of each key, which ``PYTHONHASHSEED`` perturbs, so two
interpreters launched with different seeds map names to different
delays and pop process-completion events in different orders — exactly
the class of bug ``repro sanitize`` exists to localize.  The first
divergent event is a :class:`~repro.sim.engine.Process` completion
carrying one of the planted names.

``clean_model`` is byte-for-byte the same workload with the single
correct change: ``sorted(...)`` pins the enumeration order.

``shared_counter_cell`` is the one real bug of its class this repo has
had (PR 13's ``hostkv/lsm/sstable.py``): a module-level
``itertools.count()`` handing out table ids, so the second cell computed
in one interpreter starts numbering where the first stopped.  Its twin
``own_counter_cell`` is PR 14's fix — the counter belongs to the store.
Only the ``pkg.mod:fn`` target form shows it: a ``path.py:fn`` target is
executed afresh by every ``collect`` and module state never survives.

``wall_clock_cell`` stamps its result with the host clock through a
helper; ``sim_clock_cell`` reads ``env.now``.  The tripwires police
files inside a ``repro`` package directory, so the guard-table test
mounts a copy of this file in one.

``cluster_cell`` is a small degrading ``run_cluster``, the one cell family
with process-wide state behind it: ``build_plan`` is memoised, so the
double run's first pass plans and its second is served the same plan.
That is only sound because the plan is frozen; ``scribbling_cluster_cell``
edits the program it was handed and must fail at the edit, not hand run 2
a shorter program.

``ycsb_cell`` runs YCSB E (scans) and F (read-modify-writes) on the KV
and the LSM rig: the composite-operation dispatch — one ``Operation``
type through one ``YCSBDriver`` — with an ordered scan on one stack and
the emulated one (prefix iterate + point reads) on the other.

``frontend_cell`` is the open-loop serving frontend below its knee and
saturated: Poisson and MMPP arrivals, admission and shedding, the EDF
pick, the batch linger and the dispatchers' signal waits.

``block_cell`` is direct block I/O at QD8 on a primed block rig over a
small hot range: 4 KiB overwrites, 2 KiB sub-unit writes (a mapped unit
that is not buffered takes the read-modify-write read), 64 KiB
multi-unit writes, reads and TRIMs, so TRIMs land on buffered units and
on units a flush has taken.  It builds its rig ``with build_block_rig(...)``
like every cell under ``src/``: the sanitizer runs each target with the
cyclic collector off and fails one whose rig outlives it.

``failing_ops_cell`` runs ops that fail on a closed KV rig: retrieves
and deletes of absent keys, reads of stored keys that stay uncorrectable
through every retry (a failed parallel fragment read), and updates a
read-only device refuses.  A failed op's exception holds the finished
frames it left, so the engine drops their locals: else each failure
kept its rig alive as cyclic garbage and the rig-lifetime check failed.

``unclosed_rig_cell`` runs a short phase on a KV rig it never closes:
the parked flush, GC and merge workers hold the rig, so it outlives the
target and the rig-lifetime check fails it.  ``closed_rig_cell`` is the
same phase ``with build_kv_rig(...) as rig:``.

The set-order pair is loaded by path
(``tests/fixtures/sanitizer_targets.py:fn``), so this file must stay
importable with only ``src`` on ``PYTHONPATH`` — and without ``from
__future__ import annotations``: a path-loaded module is not in
``sys.modules``, where ``@dataclass`` looks up string annotations.
"""

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.sim.engine import Environment

#: Planted process names; enough strings that distinct hash seeds are
#: overwhelmingly likely to produce distinct set orders.
NAMES = (
    "alder", "birch", "cedar", "dogwood", "elm", "fir", "ginkgo",
    "hazel", "juniper", "katsura", "larch", "maple",
)


def _spin(env: Environment, delay: float):
    yield env.timeout(delay)


def _run(ordered) -> List[Tuple[float, str]]:
    env = Environment()
    finished: List[Tuple[float, str]] = []
    for index, name in enumerate(ordered):

        def watch(event, name=name):
            finished.append((env.now, name))

        proc = env.process(_spin(env, 1.0 + index), name=name)
        proc.callbacks.append(watch)
    env.run()
    return finished


def buggy_model() -> List[Tuple[float, str]]:
    """Delays assigned by set-enumeration order: hash-seed dependent."""
    return _run(set(NAMES))


def clean_model() -> List[Tuple[float, str]]:
    """The fix: sorted() pins the order regardless of hash seed."""
    return _run(sorted(set(NAMES)))


_sst_ids = itertools.count()


@dataclass
class _SSTable:
    """A sorted run, named after its id as PR 13's ``SSTable`` was."""

    level: int
    sst_id: int = field(default_factory=lambda: next(_sst_ids))

    @property
    def name(self) -> str:
        return f"sst-{self.sst_id:08d}.sst"


def shared_counter_cell() -> List[Tuple[float, str]]:
    """Table ids drawn from the module: a cell sees every cell before it."""
    return _run(_SSTable(level=0).name for _ in range(4))


def own_counter_cell() -> List[Tuple[float, str]]:
    """The fix: the counter is built with the cell's own store."""
    ids = itertools.count()
    return _run(_SSTable(level=0, sst_id=next(ids)).name for _ in range(4))


def _stamp() -> float:
    return time.time()


def _one_op(started: float) -> Dict[str, float]:
    env = Environment()
    env.process(_spin(env, 2.0), name="op")
    env.run()
    return {"started": started, "elapsed_us": env.now}


def wall_clock_cell() -> Dict[str, float]:
    """A host clock read reaches a result field through a helper."""
    return _one_op(_stamp())


def sim_clock_cell() -> Dict[str, float]:
    """The fix: the only clock is ``Environment.now``."""
    return _one_op(Environment().now)


def replay_churn() -> List[Tuple[float, str, bytes, int, float]]:
    """Churn trace stream as plain tuples: must be hash-seed independent.

    The replay property suite compares this fingerprint across child
    interpreters with different ``PYTHONHASHSEED`` values — any dict/set
    iteration leaking into the generator shows up as a divergence.
    """
    from repro.kvbench.generators import ChurnSpec, generate_churn

    spec = ChurnSpec(n_ops=80, population=256, working_set=32,
                     rotate_every_ops=24, seed=11)
    return [(r.timestamp_us, r.op, r.key, r.size, r.ttl_us)
            for r in generate_churn(spec)]


def replay_expiry() -> List[Tuple[float, str, bytes, int, float]]:
    """Expiry trace stream (TTL deletes materialized), same contract.

    Exercises the generator's heap/dict bookkeeping — the most
    order-sensitive code in the replay subsystem.
    """
    from repro.kvbench.generators import ExpirySpec, generate_expiry

    spec = ExpirySpec(n_ops=80, population=48, ttl_us=1500.0, seed=13)
    return [(r.timestamp_us, r.op, r.key, r.size, r.ttl_us)
            for r in generate_expiry(spec)]


def _cluster_spec():
    from repro.cluster.spec import ClusterSpec, DegradeEvent, TenantSpec

    return ClusterSpec(
        shards=2, replication=2, partitions=8, vnodes=8,
        tenants=(TenantSpec(name="ta", workload="A", n_ops=60,
                            population=120, seed=11),),
        degrade=(DegradeEvent(shard=0, at_op=30),),
        rebalance_window_ops=15, blocks_per_plane=8, seed=17,
    )


def cluster_cell() -> str:
    """A degrading 2-shard cluster run, planned once per process."""
    from repro.cluster.run import run_cluster

    return run_cluster(_cluster_spec()).fingerprint()


def scribbling_cluster_cell() -> str:
    """Drops the last op of the program it was handed before running."""
    from repro.cluster.run import run_cluster
    from repro.cluster.router import shard_plan

    spec = _cluster_spec()
    shard_plan(spec, 1).segments[-1].pop()
    return run_cluster(spec).fingerprint()


def ycsb_cell() -> List[Tuple[str, str, int, int, float]]:
    """YCSB E + F, 120 ops each, on the KV and the LSM rig."""
    from repro.kvbench.ycsb_sweep import ycsb_cell as cell

    return [
        (workload, system, run["completed"], run["failed"], run["mean_us"])
        for system in ("kv", "lsm")
        for workload in "EF"
        for run in [cell(workload, system, n_ops=120, population=300)]
    ]


def frontend_cell() -> List[Tuple[float, int, int, int, int, int, float, str]]:
    """300 open-loop requests at 32 kops (batching) and 768 kops (shedding)."""
    from repro.frontend.frontend import run_frontend
    from repro.frontend.run import build_load_spec

    rows = []
    for load_kops in (32.0, 768.0):
        result = run_frontend(build_load_spec(
            load_kops * 1000.0, n_requests=300, admit_capacity=48,
            population=400, seed=5,
        ))
        rows.append((
            load_kops, result.admitted, result.shed, result.completed,
            result.failed, result.batches, result.elapsed_us,
            repr(sorted(result.per_class.items())),
        ))
    return rows


def block_cell() -> Tuple[int, int, float, int, str]:
    """480 mixed direct-I/O commands of three sizes at QD8, then a drain.

    Seven in ten start in 512 hot units that straddle a mapping-segment
    boundary, so commands meet buffered units and units in flight; the
    rest land anywhere in the primed half and miss the segment cache.
    """
    import random

    from repro.core.experiment import build_block_rig, lab_geometry
    from repro.kvbench.runner import closed_loop

    with build_block_rig(lab_geometry(16)) as rig:
        device, api = rig.device, rig.api
        primed = device.n_units // 2
        device.prime_sequential_fill(primed)
        unit = device.map_unit
        rng = random.Random(23)
        commands = []
        for _ in range(480):
            if rng.random() < 0.7:
                at = (768 + rng.randrange(512)) * unit
            else:
                at = rng.randrange(primed - 16) * unit
            roll = rng.random()
            if roll < 0.30:
                commands.append((api.write, at, unit))
            elif roll < 0.45:
                commands.append(
                    (api.write, at + rng.choice((0, unit // 2)), unit // 2)
                )
            elif roll < 0.55:
                commands.append((api.write, at, 16 * unit))
            elif roll < 0.80:
                commands.append((api.read, at, rng.choice((unit, 16 * unit))))
            else:
                commands.append((api.deallocate, at, rng.choice((unit, 4 * unit))))
        outcomes = []

        def done(command, started, _value, error):
            outcomes.append(error is None)

        rig.env.run_until_complete(rig.env.process(_drained(
            rig.env, closed_loop(
                rig.env, "blk", 8, lambda c: c[0](c[1], c[2]), commands, done,
            ), device,
        ), name="block_cell"))
        return (
            sum(outcomes), len(outcomes), rig.env.now,
            device.pagemap.mapped_units, repr(device.stats),
        )


def _drained(env: Environment, loop, device):
    yield loop
    yield from device.drain()


def _kv_phase(rig) -> Tuple[int, float]:
    from repro.kvbench.runner import run_phase
    from repro.kvbench.workload import WorkloadSpec
    from repro.kvftl.population import KeyScheme

    spec = WorkloadSpec(n_ops=100, op="insert",
                        key_scheme=KeyScheme(prefix=b"life", digits=12),
                        value_bytes=4096, seed=3)
    run = run_phase(rig, "lifetime", spec, 4)
    return run.completed_ops, rig.env.now


def unclosed_rig_cell() -> Tuple[int, float]:
    """100 inserts on a KV rig that is never closed."""
    from repro.core.experiment import build_kv_rig, lab_geometry

    return _kv_phase(build_kv_rig(lab_geometry(4)))


def closed_rig_cell() -> Tuple[int, float]:
    """The fix: the same phase inside the rig's ``with`` block."""
    from repro.core.experiment import build_kv_rig, lab_geometry

    with build_kv_rig(lab_geometry(4)) as rig:
        return _kv_phase(rig)


def failing_ops_cell() -> Tuple[int, int, int, int, float, str]:
    """480 lookups, updates and reads at QD8 on a primed KV rig whose
    reads fail one time in ten, then 40 updates once it is read-only."""
    from repro.core.experiment import build_kv_rig, lab_geometry
    from repro.faults.model import FaultConfig
    from repro.kvbench.runner import execute_workload
    from repro.kvbench.workload import Operation, OpType
    from repro.kvftl.population import KeyScheme

    stored, absent = KeyScheme(prefix=b"fail", digits=12), KeyScheme(prefix=b"miss", digits=12)
    faults = FaultConfig(seed=5, read_uncorrectable_prob=0.1)
    with build_kv_rig(lab_geometry(8), fault_config=faults) as rig:
        rig.prime(400, 4096, stored)
        operations = []
        for i in range(120):
            operations += [
                Operation(OpType.READ, absent.key_for(i), i, 0),
                Operation(OpType.DELETE, absent.key_for(i), i, 0),
                Operation(OpType.UPDATE, stored.key_for(i), i, 4096),
                Operation(OpType.READ, stored.key_for(3 * i), 3 * i, 0),
            ]
        lookups = execute_workload(rig.env, rig.adapter, operations, queue_depth=8)
        rig.drain()
        rig.device.core.read_only = True
        refused = execute_workload(rig.env, rig.adapter, [
            Operation(OpType.UPDATE, stored.key_for(i), i, 4096) for i in range(40)
        ], queue_depth=4)
        return (
            lookups.completed_ops, lookups.failed_ops, refused.completed_ops,
            refused.failed_ops, rig.env.now, repr(rig.device.stats),
        )
