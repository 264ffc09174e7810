"""Frontend configuration: SLO classes, tenant loads, and the frontend.

A :class:`FrontendSpec` is the complete, hashable input of one open-loop
serving run — the sweep engine caches cells keyed on it, so everything
that influences the outcome must live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError
from repro.frontend.arrivals import ArrivalSpec
from repro.units import float_sum

#: Tenant op mixes the frontend accepts (kvbench workload kinds).
TENANT_OPS = ("read", "update", "mixed")


@dataclass(frozen=True)
class SLOClass:
    """One service class: a name and a latency deadline.

    The deadline drives both scheduling (EDF dispatches the class whose
    head request's ``arrival + deadline`` is earliest) and reporting
    (a request completing past its deadline is an SLO violation).
    """

    name: str
    deadline_us: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SLO class name must be non-empty")
        if not (math.isfinite(self.deadline_us) and self.deadline_us > 0.0):
            raise ConfigurationError(
                f"SLO deadline_us must be finite and > 0 us, "
                f"got {self.deadline_us}"
            )


@dataclass(frozen=True)
class TenantLoad:
    """One tenant: an arrival process plus the op mix it submits.

    Each tenant owns a disjoint key range (keys are prefixed with the
    tenant name), primed before the open-loop phase so reads and updates
    always address existing pairs.
    """

    name: str
    slo: str
    arrivals: ArrivalSpec
    op: str = "read"
    value_bytes: int = 4096
    read_fraction: float = 0.5
    population: int = 512
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.name or not self.name.isalnum():
            raise ConfigurationError(
                f"tenant name must be non-empty alphanumeric, got {self.name!r}"
            )
        if self.op not in TENANT_OPS:
            raise ConfigurationError(
                f"tenant op must be one of {TENANT_OPS}, got {self.op!r}"
            )
        if self.value_bytes < 1:
            raise ConfigurationError(
                f"value_bytes must be >= 1, got {self.value_bytes}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("read_fraction outside [0, 1]")
        if self.population < 1:
            raise ConfigurationError(
                f"population must be >= 1, got {self.population}"
            )
        if self.population > 10 ** self.key_digits:
            raise ConfigurationError(
                f"tenant {self.name!r} can name at most "
                f"{10 ** self.key_digits} keys ({self.key_digits} digits "
                f"after its prefix in a 16-byte key), got population "
                f"{self.population}"
            )

    @property
    def key_digits(self) -> int:
        """Digits left for the key index in a 16-byte ``name-`` key."""
        return max(1, 15 - len(self.name))


@dataclass(frozen=True)
class FrontendSpec:
    """Everything one open-loop serving run depends on."""

    classes: Tuple[SLOClass, ...]
    tenants: Tuple[TenantLoad, ...]
    #: Bounded admission queue: requests arriving while this many are in
    #: flight (queued or executing) are shed, never acknowledged.
    admit_capacity: int = 64
    blocks_per_plane: int = 8
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("frontend needs at least one SLO class")
        names = [cls.name for cls in self.classes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate SLO class names: {names}")
        if not self.tenants:
            raise ConfigurationError("frontend needs at least one tenant")
        tenant_names = [tenant.name for tenant in self.tenants]
        if len(set(tenant_names)) != len(tenant_names):
            raise ConfigurationError(
                f"duplicate tenant names: {tenant_names}"
            )
        known = set(names)
        for tenant in self.tenants:
            if tenant.slo not in known:
                raise ConfigurationError(
                    f"tenant {tenant.name!r} references unknown SLO class "
                    f"{tenant.slo!r}"
                )
        if self.admit_capacity < 1:
            raise ConfigurationError(
                f"admit_capacity must be >= 1, got {self.admit_capacity}"
            )

    def class_index(self, name: str) -> int:
        """Position of SLO class ``name`` in :attr:`classes`."""
        for index, cls in enumerate(self.classes):
            if cls.name == name:
                return index
        raise ConfigurationError(f"unknown SLO class {name!r}")

    @property
    def offered_ops_s(self) -> float:
        """Aggregate mean offered load across tenants (ops/s)."""
        return float_sum(tenant.arrivals.rate_ops_s for tenant in self.tenants)
