"""Declarative cluster configuration.

A :class:`ClusterSpec` fully determines a cluster run — tenants, shard
count, replication factor, ring shape, and any planned device
degradations.  Everything in it is a frozen dataclass of primitives and
tuples, so a spec is picklable, content-hashable by the result cache
(:mod:`repro.exec.cache`), and safe to ship to worker processes: a shard
cell receives ``(spec, shard_id)`` and takes its own slice of the plan
its process routed from that spec (once — ``build_plan`` is memoised)
instead of hauling op lists through pickles.

Key naming is two-level: ``tenant tag (4 B) + partition number (4
digits) + local index (8 digits)`` — 16-byte keys, the paper's macro
key size.  Partitions (not raw keys) are the ring's placement unit, the
way Dynamo-style stores place vnode ranges; a partition's local index
space is dense and contiguous, which is exactly what the untimed
priming machinery (:func:`repro.kvftl.priming.fast_fill`) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError
from repro.kvftl.population import KeyScheme

#: Decimal digits naming a partition inside a key (max 9999 partitions).
PARTITION_DIGITS = 4
#: Decimal digits naming a pair inside its partition.
LOCAL_DIGITS = 8
#: Shard personalities the cluster can build.
PERSONALITIES = ("kv", "block")


def shard_name(shard: int) -> str:
    """Ring-member name of shard ``shard``."""
    return f"shard{shard}"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: a prefix-scoped namespace driving a YCSB workload.

    Its pairs are YCSB's default 1,000-byte records, its zipfian draws
    YCSB's skew, and its workload-E scans 10 records long.
    """

    #: Tenant identity; the first four ASCII characters (underscore
    #: padded) become the key-prefix tag, so every key of this tenant is
    #: recognizable — and quota-countable — by prefix alone.
    name: str
    #: YCSB core workload letter (A-F), or ``"churn"`` for the
    #: churn stream (:mod:`repro.kvbench.generators`) over a static hot
    #: window of :attr:`churn_window` keys.
    workload: str
    #: Operations this tenant contributes to the cluster stream.
    n_ops: int
    #: Distinct keys prefilled before the measured phase.
    population: int
    #: Maximum pairs the tenant may hold (prefill + inserts);
    #: 0 = unlimited.  Inserts past the quota are rejected at the
    #: router and never reach a device.
    quota_pairs: int = 0
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.name.isascii():
            raise ConfigurationError(
                f"tenant name must be non-empty ASCII, got {self.name!r}"
            )
        if not self.name[0].isalnum():
            # Non-alphanumeric lead bytes (e.g. "!") are reserved for the
            # cluster's internal key namespaces (sacrificial degrade keys).
            raise ConfigurationError(
                f"tenant name must start alphanumeric, got {self.name!r}"
            )
        if self.workload != "churn" and (
            self.workload not in "ABCDEF" or len(self.workload) != 1
        ):
            raise ConfigurationError(
                f"tenant {self.name!r}: workload must be one of A-F "
                f"or 'churn', got {self.workload!r}"
            )
        if self.n_ops < 1 or self.population < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: n_ops and population must be >= 1"
            )
        if self.quota_pairs < 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: quota_pairs must be >= 0"
            )
        if self.quota_pairs and self.quota_pairs < self.population:
            raise ConfigurationError(
                f"tenant {self.name!r}: quota_pairs {self.quota_pairs} is "
                f"below the prefilled population {self.population}"
            )

    @property
    def churn_window(self) -> int:
        """Churn hot-window size in keys: an eighth of the population."""
        return max(1, self.population // 8)

    @property
    def tag(self) -> bytes:
        """Four-byte key prefix identifying this tenant's namespace."""
        return self.name[:4].ljust(4, "_").encode("ascii")

    def partition_scheme(self, partition: int) -> KeyScheme:
        """Key scheme of one partition's dense local index space."""
        prefix = self.tag + str(partition).zfill(PARTITION_DIGITS).encode(
            "ascii"
        )
        return KeyScheme(prefix=prefix, digits=LOCAL_DIGITS)

    def partition_token(self, partition: int) -> str:
        """Ring placement token of one partition of this tenant."""
        return f"{self.name[:4]}/{partition}"


@dataclass(frozen=True)
class DegradeEvent:
    """A planned mid-run device retirement.

    At global stream position ``at_op`` the shard's device degrades to
    read-only (through the real mechanism: scheduled program-fail
    faults exhaust its spare-block budget, tripping
    ``FtlCore.read_only``), the router removes it from the ring, and
    drain traffic restores the replication factor on the survivors.
    """

    shard: int
    at_op: int

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigurationError(f"shard must be >= 0, got {self.shard}")
        if self.at_op < 0:
            raise ConfigurationError(f"at_op must be >= 0, got {self.at_op}")


def _default_tenants() -> Tuple[TenantSpec, ...]:
    return (
        TenantSpec(name="ta", workload="A", n_ops=400, population=600),
        TenantSpec(name="tb", workload="B", n_ops=400, population=600),
    )


@dataclass(frozen=True)
class ClusterSpec:
    """Complete description of one cluster run."""

    shards: int = 4
    #: Replication factor R: write-all / read-one.
    replication: int = 2
    #: Ring partitions per tenant namespace.
    partitions: int = 32
    #: Virtual nodes per shard on the ring.
    vnodes: int = 16
    #: Per-shard personality ("kv"/"block"); empty = all KV.
    personalities: Tuple[str, ...] = ()
    tenants: Tuple[TenantSpec, ...] = field(default_factory=_default_tenants)
    #: Planned read-only degradations, in stream order.
    degrade: Tuple[DegradeEvent, ...] = ()
    #: Client operations routed while drain traffic is in flight get the
    #: "rebalance" phase label; the window bounds how many.
    rebalance_window_ops: int = 200
    #: Interleave seed for merging tenant streams.
    seed: int = 1
    queue_depth: int = 8
    blocks_per_plane: int = 16
    #: Record router/device spans through the trace subsystem.
    trace: bool = False
    #: Post-run device-side verification of every expected key (KV
    #: personalities only; disable for very large runs).
    verify: bool = True

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {self.shards}")
        if not 1 <= self.replication <= self.shards:
            raise ConfigurationError(
                f"replication must be in [1, {self.shards}], "
                f"got {self.replication}"
            )
        if not 1 <= self.partitions <= 10**PARTITION_DIGITS - 1:
            raise ConfigurationError(
                f"partitions must be in [1, {10 ** PARTITION_DIGITS - 1}], "
                f"got {self.partitions}"
            )
        if self.vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.personalities and len(self.personalities) != self.shards:
            raise ConfigurationError(
                f"personalities must name all {self.shards} shards or none, "
                f"got {len(self.personalities)}"
            )
        for personality in self.personalities:
            if personality not in PERSONALITIES:
                raise ConfigurationError(
                    f"unknown personality {personality!r}; "
                    f"expected one of {PERSONALITIES}"
                )
        if not self.tenants:
            raise ConfigurationError("a cluster needs at least one tenant")
        tags = [tenant.tag for tenant in self.tenants]
        if len(set(tags)) != len(tags):
            raise ConfigurationError(
                f"tenant tags must be unique, got {tags!r}"
            )
        degraded = [event.shard for event in self.degrade]
        if len(set(degraded)) != len(degraded):
            raise ConfigurationError(
                f"a shard may degrade at most once, got {degraded!r}"
            )
        for event in self.degrade:
            if event.shard >= self.shards:
                raise ConfigurationError(
                    f"degrade targets shard {event.shard} of {self.shards}"
                )
        if len(self.degrade) >= self.shards:
            raise ConfigurationError(
                f"{len(self.degrade)} degradations would retire all "
                f"{self.shards} shards"
            )
        positions = [event.at_op for event in self.degrade]
        if positions != sorted(positions):
            raise ConfigurationError(
                "degrade events must be ordered by at_op"
            )
        for event in self.degrade:
            if event.at_op >= self.total_client_ops:
                raise ConfigurationError(
                    f"degrade at_op {event.at_op} is past the end of the "
                    f"{self.total_client_ops}-op client stream"
                )
        if self.rebalance_window_ops < 1:
            raise ConfigurationError(
                f"rebalance_window_ops must be >= 1, "
                f"got {self.rebalance_window_ops}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )

    def personality_of(self, shard: int) -> str:
        """Personality of shard ``shard`` ("kv" unless configured)."""
        if not 0 <= shard < self.shards:
            raise ConfigurationError(
                f"shard {shard} outside [0, {self.shards})"
            )
        if self.personalities:
            return self.personalities[shard]
        return "kv"

    @property
    def total_client_ops(self) -> int:
        """Client operations across every tenant (drain excluded)."""
        return sum(tenant.n_ops for tenant in self.tenants)
