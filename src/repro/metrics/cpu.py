"""Host CPU accounting (the simulator's ``dstat``).

The paper's RQ1 headline is that KV-SSD cuts host CPU utilization by ~13x
versus RocksDB-on-block (because indexing, compaction and mapping move into
the device).  In the simulator every host-side component charges its CPU
work to a :class:`CpuAccountant`, which keeps the one total the figures
read.
"""

from __future__ import annotations


class CpuAccountant:
    """Accumulates host CPU time charged by software components.

    Charging is instantaneous bookkeeping — it does not advance the clock.
    Components that also *occupy* the CPU (serialize) should additionally
    hold a host CPU :class:`~repro.sim.resources.Resource`; for the paper's
    experiments the interesting quantity is consumption, not contention, so
    plain charging is the default.
    """

    def __init__(self) -> None:
        #: All CPU time charged since construction.  The command envelope
        #: adds its constant per-command charges here in place.
        self.total_busy_us = 0.0

    def charge(self, cpu_us: float) -> None:
        """Charge ``cpu_us`` of host CPU work."""
        if cpu_us < 0:
            raise ValueError(f"negative CPU charge {cpu_us}")
        self.total_busy_us += cpu_us
