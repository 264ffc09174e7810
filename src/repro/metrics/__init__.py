"""Measurement instruments: latency, bandwidth, CPU.

Device counters and space books are one record,
:class:`repro.ftl.core.DeviceStats`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BandwidthPoint",
    "BandwidthTracker",
    "CpuAccountant",
    "CpuReport",
    "LatencyBreakdown",
    "LatencyRecorder",
    "LatencySummary",
    "percentile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "attribution": ("LatencyBreakdown",),
    "bandwidth": ("BandwidthPoint", "BandwidthTracker"),
    "cpu": ("CpuAccountant", "CpuReport"),
    "latency": ("LatencyRecorder", "LatencySummary", "percentile"),
})
