"""Latency recording and summary statistics.

:class:`LatencyRecorder` collects per-operation latencies (microseconds)
and produces the summaries the paper reports: averages, percentiles, and
distribution comparisons (the box-plot style data of Fig. 2 and the ratio
series of Fig. 4).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class LatencySummary:
    """Immutable summary of a latency sample set (all times in us)."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p90: float
    p99: float
    p999: float
    stddev: float

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for table printing and JSON-ish dumping."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
            "p999": self.p999,
            "stddev": self.stddev,
        }


def percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample list."""
    if not sorted_samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in [0,1], got {fraction}")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    position = fraction * (len(sorted_samples) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return sorted_samples[low]
    weight = position - low
    return sorted_samples[low] * (1.0 - weight) + sorted_samples[high] * weight


class LatencyRecorder:
    """Accumulates operation latencies, optionally split by operation type.

    Samples are tagged with an ``op`` label (``'insert'``, ``'read'``, ...)
    so a single recorder can serve a mixed workload run.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        # Samples live in compact C-double arrays: one object per label
        # instead of one boxed float per sample, and record() is a dict
        # probe plus an append.  array('d') round-trips Python floats
        # exactly, so summaries are bit-identical to the list-backed ones.
        self._samples: Dict[str, "array[float]"] = {}

    def record(self, latency_us: float, op: str = "all") -> None:
        """Add one latency sample under label ``op``."""
        if latency_us < 0:
            raise ValueError(f"negative latency {latency_us}")
        samples = self._samples.get(op)
        if samples is None:
            samples = self._samples[op] = array("d")
        samples.append(latency_us)

    def count(self, op: Optional[str] = None) -> int:
        """Number of samples for ``op`` (or across all labels)."""
        if op is not None:
            return len(self._samples.get(op, ()))
        return sum(len(samples) for samples in self._samples.values())

    def labels(self) -> List[str]:
        """Operation labels seen so far, sorted."""
        return sorted(self._samples)

    def samples(self, op: Optional[str] = None) -> List[float]:
        """Copy of the raw samples for ``op`` (or all labels merged)."""
        if op is not None:
            return list(self._samples.get(op, ()))
        merged: List[float] = []
        for batch in self._samples.values():
            merged.extend(batch)
        return merged

    def summary(self, op: Optional[str] = None) -> LatencySummary:
        """Summary statistics for ``op`` (or all samples merged)."""
        samples = self.samples(op)
        if not samples:
            raise ValueError(
                f"no latency samples recorded for {op!r} in {self.name!r}"
            )
        samples.sort()
        total = sum(samples)
        mean = total / len(samples)
        variance = sum((value - mean) ** 2 for value in samples) / len(samples)
        return LatencySummary(
            count=len(samples),
            mean=mean,
            minimum=samples[0],
            maximum=samples[-1],
            p50=percentile(samples, 0.50),
            p90=percentile(samples, 0.90),
            p99=percentile(samples, 0.99),
            p999=percentile(samples, 0.999),
            stddev=math.sqrt(variance),
        )

    def mean(self, op: Optional[str] = None) -> float:
        """Arithmetic mean latency for ``op`` (or all samples)."""
        samples = self.samples(op)
        if not samples:
            raise ValueError(f"no latency samples for {op!r}")
        return sum(samples) / len(samples)
