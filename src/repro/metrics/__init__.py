"""Measurement instruments: latency, bandwidth, CPU, space, device counters."""

from repro._lazy import lazy_exports

__all__ = [
    "BandwidthPoint",
    "BandwidthTracker",
    "CpuAccountant",
    "CpuReport",
    "DeviceCounters",
    "LatencyBreakdown",
    "LatencyRecorder",
    "LatencySummary",
    "SpaceAccountant",
    "latency_ratio",
    "percentile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "attribution": ("LatencyBreakdown",),
    "bandwidth": ("BandwidthPoint", "BandwidthTracker"),
    "counters": ("DeviceCounters",),
    "cpu": ("CpuAccountant", "CpuReport"),
    "latency": (
        "LatencyRecorder", "LatencySummary", "latency_ratio", "percentile",
    ),
    "space": ("SpaceAccountant",),
})
