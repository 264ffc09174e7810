"""Windowed bandwidth tracking (the simulator's ``iostat``).

:class:`BandwidthTracker` accumulates completed-transfer byte counts into
fixed-width time windows of the simulation clock, yielding the bandwidth
time series the paper plots in Figs. 5, 6 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.units import mib_per_sec


@dataclass(frozen=True)
class BandwidthPoint:
    """One window of the bandwidth time series."""

    start_us: float
    end_us: float
    bytes_moved: int
    operations: int

    @property
    def mib_per_sec(self) -> float:
        """Window bandwidth in MiB/s."""
        return mib_per_sec(self.bytes_moved, self.end_us - self.start_us)


class BandwidthTracker:
    """Accumulates completions into consecutive fixed-width windows.

    The first window and the overall rate start at ``start_us``, the
    measured phase's own start.  Completions must be reported with
    non-decreasing timestamps (the single-threaded simulation guarantees
    this).  Empty windows between completions are materialized so stalls
    — the foreground-GC signature of Fig. 6 — appear as explicit zero/low
    points rather than being skipped.
    """

    def __init__(self, window_us: float, start_us: float, name: str = "") -> None:
        if window_us <= 0:
            raise ValueError(f"window width must be positive, got {window_us}")
        self.window_us = window_us
        self.name = name
        self._points: List[BandwidthPoint] = []
        self._start = start_us
        self._window_start = start_us
        self._window_bytes = 0
        self._window_ops = 0
        self._total_bytes = 0
        self._last_time = start_us

    def record(self, timestamp_us: float, nbytes: int) -> None:
        """Report a completion of ``nbytes`` at simulation time ``timestamp_us``."""
        if timestamp_us < self._last_time:
            raise ValueError(
                "bandwidth completions must be time-ordered "
                f"({timestamp_us} < {self._last_time})"
            )
        self._last_time = timestamp_us
        while timestamp_us >= self._window_start + self.window_us:
            self._close_window()
        self._window_bytes += nbytes
        self._window_ops += 1
        self._total_bytes += nbytes

    def _close_window(self) -> None:
        end = self._window_start + self.window_us
        self._points.append(
            BandwidthPoint(
                start_us=self._window_start,
                end_us=end,
                bytes_moved=self._window_bytes,
                operations=self._window_ops,
            )
        )
        self._window_start = end
        self._window_bytes = 0
        self._window_ops = 0

    def finish(self, end_time_us: float) -> None:
        """Flush windows up to ``end_time_us`` (call once, after the run)."""
        while end_time_us > self._window_start + self.window_us:
            self._close_window()
        if self._window_ops or self._window_bytes:
            self._points.append(
                BandwidthPoint(
                    start_us=self._window_start,
                    end_us=max(end_time_us, self._window_start + 1e-9),
                    bytes_moved=self._window_bytes,
                    operations=self._window_ops,
                )
            )
            self._window_start = self._points[-1].end_us
            self._window_bytes = 0
            self._window_ops = 0

    @property
    def points(self) -> List[BandwidthPoint]:
        """The closed windows so far."""
        return list(self._points)

    def overall_mib_per_sec(self) -> float:
        """Mean bandwidth from the start to the last completion."""
        return mib_per_sec(self._total_bytes, self._last_time - self._start)

    def series_mib_per_sec(self) -> List[float]:
        """Bandwidth of each closed window, in MiB/s."""
        return [point.mib_per_sec for point in self._points]

    def minimum_window_mib_per_sec(self) -> float:
        """Worst closed window — the depth of a GC-induced trough."""
        series = self.series_mib_per_sec()
        if not series:
            raise ValueError("no closed bandwidth windows")
        return min(series)
