"""Timing model for NAND flash operations.

Latencies are calibrated so the *block* firmware personality lands near the
PM983 datasheet relationships the paper relies on (Sec. IV): ~80-100 us 4 KiB
random reads, tens-of-us buffered writes, sequential 4 KiB reads/writes at
roughly 0.8x / 0.6x the latency of random ones, and near-constant latency
as occupancy grows.  The KV personality uses the *same* flash timing — the
paper's same-hardware methodology — and differs only in FTL policy costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class FlashTiming:
    """NAND and channel timing parameters (times in microseconds).

    Attributes
    ----------
    read_us:
        Array sense time for one page read (tR).  TLC-class value.
    program_us:
        Array program time for one page (tPROG).
    erase_us:
        Block erase time (tBERS).
    channel_bytes_per_us:
        Channel transfer rate; 800 bytes/us = 800 MB/s ONFI-class bus.
    command_overhead_us:
        Fixed channel occupancy per flash command (command/address cycles).
    """

    read_us: float = 60.0
    program_us: float = 700.0
    erase_us: float = 3000.0
    channel_bytes_per_us: float = 800.0
    command_overhead_us: float = 1.5

    #: Memo table for :meth:`transfer_us`.  Workloads issue a handful of
    #: distinct transfer sizes (the value size, the page size, index
    #: pages), so per-page timing arithmetic on the hot path collapses to
    #: one dict probe.  Values are computed by the same expression as the
    #: uncached path, so the table is exact, not approximate.
    _transfer_memo: Dict[int, float] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        for field_name in (
            "read_us",
            "program_us",
            "erase_us",
            "channel_bytes_per_us",
            "command_overhead_us",
        ):
            value = getattr(self, field_name)
            if value <= 0 and field_name != "command_overhead_us":
                raise ConfigurationError(
                    f"timing field {field_name} must be positive, got {value}"
                )
        if self.command_overhead_us < 0:
            raise ConfigurationError("command_overhead_us must be >= 0")

    def transfer_us(self, nbytes: int) -> float:
        """Channel occupancy to move ``nbytes`` plus command overhead."""
        memo = self._transfer_memo
        cached = memo.get(nbytes)
        if cached is not None:
            return cached
        if nbytes < 0:
            raise ConfigurationError(f"transfer size must be >= 0, got {nbytes}")
        value = self.command_overhead_us + nbytes / self.channel_bytes_per_us
        memo[nbytes] = value
        return value
