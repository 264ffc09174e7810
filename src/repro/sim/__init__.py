"""Deterministic discrete-event simulation substrate.

The engine (:mod:`repro.sim.engine`: ``Environment``, ``Event``,
``Process``) and the contention primitives (:mod:`repro.sim.resources`:
``Resource``, ``TokenBucket``) used by every timed component in the SSD
models.
"""
