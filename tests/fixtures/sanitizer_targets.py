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
