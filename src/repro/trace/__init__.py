"""Span tracing, latency attribution, and Perfetto export."""
