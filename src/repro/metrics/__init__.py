"""Measurement instruments: latency, bandwidth, CPU.

Device counters and space books are one record,
:class:`repro.ftl.core.DeviceStats`.
"""
