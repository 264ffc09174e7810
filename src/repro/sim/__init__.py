"""Deterministic discrete-event simulation substrate.

Exports the engine (:class:`Environment`, :class:`Event`, :class:`Process`)
and the contention primitives (:class:`Resource`, :class:`TokenBucket`) used
by every timed component in the SSD models.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "ProcessGenerator",
    "Request",
    "Resource",
    "Timeout",
    "TokenBucket",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "engine": (
        "AllOf", "AnyOf", "Environment", "Event", "Process",
        "ProcessGenerator", "Timeout",
    ),
    "resources": ("Request", "Resource", "TokenBucket"),
})
