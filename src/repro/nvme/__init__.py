"""NVMe command-set and host driver models."""

from repro._lazy import lazy_exports

__all__ = [
    "DriverCosts",
    "INLINE_KEY_BYTES",
    "KernelDeviceDriver",
    "KVCommandSet",
    "KVOpcode",
    "NVME_COMMAND_BYTES",
    "commands_for_key",
    "compound_command_count",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "command": (
        "INLINE_KEY_BYTES", "NVME_COMMAND_BYTES", "KVCommandSet", "KVOpcode",
        "commands_for_key", "compound_command_count",
    ),
    "driver": ("DriverCosts", "KernelDeviceDriver"),
})
