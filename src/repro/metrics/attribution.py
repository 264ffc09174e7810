"""Latency attribution: roll trace spans into per-op-type breakdowns.

:class:`LatencyBreakdown` consumes finished span records (duck-typed:
anything with ``pid``/``cat``/``name``/``ts``/``dur``/``args``) and
aggregates two independent views:

* **operation attribution** — for every ``op`` root span, the total
  latency (into one :class:`~repro.metrics.latency.LatencyRecorder`, one
  label per op type) and its per-bucket components (``nvme``,
  ``controller``, ``index``, ``buffer``, ``flash``, ...) carried in the
  record's ``args["components"]``.  Mean/p99/p999 per op type come from
  the recorder, and the mean components sum to the mean latency because
  the phases tile each operation.
* **device-timeline category totals** — summed busy time per non-op
  category (``flash``, ``gc``, ``flush``, ``nvme``, ``host``), the view
  that cross-checks against :class:`~repro.ftl.core.DeviceStats`
  counters (``flash_busy_us``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.metrics.latency import LatencyRecorder


class LatencyBreakdown:
    """Aggregates span records into per-op-type latency attribution."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._latency = LatencyRecorder(name)
        #: Op type -> bucket -> summed component time, in first-seen order.
        self._component_us: Dict[str, Dict[str, float]] = {}
        self._category_us: Dict[str, float] = {}

    @classmethod
    def from_records(
        cls,
        records: Iterable[object],
        pid: Optional[int] = None,
        since_us: Optional[float] = None,
        name: str = "",
    ) -> "LatencyBreakdown":
        """Build a breakdown from records, optionally filtered.

        ``pid`` restricts to one device's tracer; ``since_us`` keeps only
        spans that *started* at or after the cutoff (the measured phase
        of a run, excluding warmup traffic).
        """
        breakdown = cls(name)
        for record in records:
            if pid is not None and record.pid != pid:
                continue
            if since_us is not None and record.ts < since_us:
                continue
            breakdown.add(record)
        return breakdown

    def add(self, record: object) -> None:
        """Fold one finished span record into the aggregate."""
        cat = record.cat
        if cat == "op":
            self._latency.record(record.dur, record.name)
            sums = self._component_us.setdefault(record.name, {})
            components = (record.args or {}).get("components", {})
            for bucket, value in components.items():
                sums[bucket] = sums.get(bucket, 0.0) + value
        elif cat != "phase":
            # Phase children duplicate the op components; everything else
            # is device-timeline busy time.
            self._category_us[cat] = self._category_us.get(cat, 0.0) + record.dur

    # -- operation attribution ------------------------------------------

    def op_types(self) -> List[str]:
        """Operation names seen, sorted."""
        return self._latency.labels()

    def count(self, op: str) -> int:
        """Number of finished operations of type ``op``."""
        return self._latency.count(op)

    def mean_total_us(self, op: str) -> float:
        """Mean measured latency for ``op``."""
        return self._latency.mean(op)

    def p99_total_us(self, op: str) -> float:
        """99th-percentile latency for ``op``."""
        return self._latency.summary(op).p99

    def p999_total_us(self, op: str) -> float:
        """99.9th-percentile latency for ``op``."""
        return self._latency.summary(op).p999

    def mean_components_us(self, op: str) -> Dict[str, float]:
        """Mean time per attribution bucket for ``op`` (absent => 0)."""
        count = self.count(op)
        if not count:
            raise ValueError(f"no operations of type {op!r} recorded")
        return {
            bucket: value / count
            for bucket, value in self._component_us[op].items()
        }

    def buckets(self) -> List[str]:
        """Union of attribution buckets across all op types, sorted."""
        return sorted({
            bucket for sums in self._component_us.values() for bucket in sums
        })

    # -- device-timeline categories -------------------------------------

    def category_time_us(self, cat: str) -> float:
        """Total busy time recorded under a device-timeline category."""
        return self._category_us.get(cat, 0.0)
