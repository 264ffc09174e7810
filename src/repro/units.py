"""Unit helpers and constants used across the simulator.

The simulator's clock is denominated in **microseconds** and sizes in
**bytes**.  These helpers exist so that configuration code reads like the
datasheets it is transcribed from (``4 * KIB``, ``ms(5)``), instead of long
runs of zeros that are easy to miscount.
"""

from __future__ import annotations

from typing import Iterable

#: One kibibyte in bytes.
KIB = 1024
#: One mebibyte in bytes.
MIB = 1024 * KIB
#: One gibibyte in bytes.
GIB = 1024 * MIB
#: One tebibyte in bytes.
TIB = 1024 * GIB

#: One microsecond, the base time unit of the simulation clock.
USEC = 1.0
#: One millisecond expressed in microseconds.
MSEC = 1000.0
#: One second expressed in microseconds.
SEC = 1_000_000.0


def float_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, on every Python minor.
    From 3.12 ``sum()`` compensates float rounding (``sum([1e16, 1.0,
    -1e16])`` is 1.0 there, 0.0 before), which would make a simulated
    result depend on the interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


def ms(value: float) -> float:
    """Convert milliseconds to simulator time (microseconds)."""
    return value * MSEC


def mib_per_sec(nbytes: float, usecs: float) -> float:
    """Bandwidth in MiB/s for ``nbytes`` transferred over ``usecs``.

    Returns 0.0 for a zero-length interval instead of dividing by zero, so
    that bandwidth reporting of degenerate windows is well defined.
    """
    if usecs <= 0.0:
        return 0.0
    return (nbytes / MIB) / (usecs / SEC)


def pretty_size(nbytes: float) -> str:
    """Render a byte count with a binary-unit suffix (e.g. ``'24.0KiB'``)."""
    magnitude = float(nbytes)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if abs(magnitude) < 1024.0:
            return f"{magnitude:.1f}{suffix}" if suffix != "B" else f"{int(magnitude)}B"
        magnitude /= 1024.0
    return f"{magnitude:.1f}TiB"


def pretty_time(usecs: float) -> str:
    """Render a duration with the most readable unit (us, ms, or s)."""
    if usecs < MSEC:
        return f"{usecs:.1f}us"
    if usecs < SEC:
        return f"{usecs / MSEC:.2f}ms"
    return f"{usecs / SEC:.2f}s"


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + (alignment - remainder)


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division, the number of full-or-partial buckets."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    return -(-numerator // denominator)


#: Default tolerance for comparing simulated timestamps (microseconds).
#: Simulated times are float sums of float service costs, so two paths
#: to the "same" instant can differ by accumulated rounding; a picosecond
#: -scale epsilon is far below any modeled cost and far above any drift.
TIME_EPSILON_US = 1e-6


def times_equal(a_us: float, b_us: float,
                tolerance_us: float = TIME_EPSILON_US) -> bool:
    """Whether two simulated timestamps coincide within tolerance.

    This is the sanctioned way to compare simulated times for equality —
    ``==`` / ``!=`` on timestamps is rejected by simlint rule SIM004.
    """
    if tolerance_us < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance_us}")
    return abs(a_us - b_us) <= tolerance_us
