"""Shared FTL substrate: device core, pooling, streams, GC victims, buffers."""
