"""Deterministic NAND fault injection and the reliability model."""

from repro._lazy import lazy_exports

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultInjector",
    "READ_OK",
    "ReadResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "model": (
        "FAULT_KINDS", "FaultConfig", "FaultInjector", "READ_OK", "ReadResult",
    ),
})
