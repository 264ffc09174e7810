"""Timing model for NAND flash operations (times in microseconds).

Latencies are calibrated so the *block* firmware personality lands near the
PM983 datasheet relationships the paper relies on (Sec. IV): ~80-100 us 4 KiB
random reads, tens-of-us buffered writes, sequential 4 KiB reads/writes at
roughly 0.8x / 0.6x the latency of random ones, and near-constant latency
as occupancy grows.  The KV personality uses the *same* flash timing — the
paper's same-hardware methodology — and differs only in FTL policy costs.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Array sense time for one page read (tR).  TLC-class value.
READ_US = 60.0
#: Array program time for one page (tPROG).
PROGRAM_US = 700.0
#: Block erase time (tBERS).
ERASE_US = 3000.0
#: Channel transfer rate; 800 bytes/us = 800 MB/s ONFI-class bus.
CHANNEL_BYTES_PER_US = 800.0
#: Fixed channel occupancy per flash command (command/address cycles).
COMMAND_OVERHEAD_US = 1.5


def transfer_us(nbytes: int) -> float:
    """Channel occupancy to move ``nbytes`` plus command overhead."""
    if nbytes < 0:
        raise ConfigurationError(f"transfer size must be >= 0, got {nbytes}")
    return COMMAND_OVERHEAD_US + nbytes / CHANNEL_BYTES_PER_US
