"""Host CPU accounting (the simulator's ``dstat``).

The paper's RQ1 headline is that KV-SSD cuts host CPU utilization by ~13x
versus RocksDB-on-block (because indexing, compaction and mapping move into
the device).  In the simulator every host-side component charges its CPU
work to a :class:`CpuAccountant`; utilization is charged-time divided by
wall (simulation) time and core count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.sim.engine import Environment

#: Host CPU cores every accountant divides its charges over.
HOST_CORES = 16


@dataclass(frozen=True)
class CpuReport:
    """Summary of host CPU consumption over an interval."""

    busy_us: float
    wall_us: float
    by_component: Dict[str, float]

    @property
    def utilization(self) -> float:
        """Fraction of total core-time consumed (0..cores)."""
        if self.wall_us <= 0:
            return 0.0
        return self.busy_us / self.wall_us

    @property
    def core_fraction(self) -> float:
        """Utilization normalized by core count (0..1)."""
        return self.utilization / HOST_CORES


class CpuAccountant:
    """Accumulates host CPU time charged by software components.

    Charging is instantaneous bookkeeping — it does not advance the clock.
    Components that also *occupy* the CPU (serialize) should additionally
    hold a host CPU :class:`~repro.sim.resources.Resource`; for the paper's
    experiments the interesting quantity is consumption, not contention, so
    plain charging is the default.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._busy_us = 0.0
        self._by_component: Dict[str, float] = {}
        self._epoch_us = 0.0
        self._epoch_busy = 0.0

    def charge(self, component: str, cpu_us: float) -> None:
        """Charge ``cpu_us`` of host CPU work to ``component``."""
        if cpu_us < 0:
            raise ValueError(f"negative CPU charge {cpu_us}")
        self._busy_us += cpu_us
        self._by_component[component] = (
            self._by_component.get(component, 0.0) + cpu_us
        )

    def mark_epoch(self) -> None:
        """Start a fresh measurement interval at the current time."""
        self._epoch_us = self.env.now
        self._epoch_busy = self._busy_us

    def report(self) -> CpuReport:
        """CPU report for the interval since the last :meth:`mark_epoch`."""
        return CpuReport(
            busy_us=self._busy_us - self._epoch_busy,
            wall_us=self.env.now - self._epoch_us,
            by_component=dict(self._by_component),
        )

    @property
    def total_busy_us(self) -> float:
        """All CPU time charged since construction."""
        return self._busy_us
