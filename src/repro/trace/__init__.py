"""Span tracing, latency attribution, and Perfetto export."""

from repro._lazy import lazy_exports

__all__ = [
    "BUCKETS",
    "CATEGORIES",
    "NULL_SPAN",
    "Span",
    "SpanRecord",
    "TraceCollector",
    "TraceConfig",
    "Tracer",
    "chrome_trace_events",
    "format_breakdown",
    "to_chrome_trace",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "tracer": (
        "BUCKETS", "CATEGORIES", "NULL_SPAN", "Span", "SpanRecord",
        "TraceCollector", "TraceConfig", "Tracer",
    ),
    "export": (
        "chrome_trace_events", "format_breakdown", "to_chrome_trace",
        "write_chrome_trace",
    ),
})
