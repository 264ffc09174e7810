"""NVMe KV command-set model.

Samsung's vendor-specific KV commands ride the standard 64-byte NVMe
submission entry.  16 of those bytes are reserved for the key; a key
longer than 16 bytes does not fit and requires a *second* command to carry
it (Sec. IV, "Impact of new host-side software stack").  Fig. 8 measures
the bandwidth cliff this creates — reproduced here by counting commands
per operation and charging per-command processing on both host and device.
"""

from __future__ import annotations

import enum

from repro.errors import (
    AddressError,
    CapacityLimitError,
    ConfigurationError,
    DeviceError,
    DeviceFullError,
    DeviceReadOnlyError,
    EraseFailError,
    InvalidKeyError,
    InvalidValueError,
    KeyNotFoundError,
    ProgramFailError,
    UncorrectableReadError,
)

#: Key bytes that fit inline in a KV command.
INLINE_KEY_BYTES = 16


class NvmeStatus(enum.IntEnum):
    """Completion-queue status field, ``(SCT << 8) | SC`` per the spec.

    Generic (SCT 0) and media (SCT 2) codes come from the NVMe base
    specification; KV codes are the vendor-specific values Samsung's KV
    command set reports.  The simulated devices raise the exception
    hierarchy in :mod:`repro.errors`; :func:`status_for_error` translates
    at the driver boundary, the way a real completion path fills CQE DW3.
    """

    SUCCESS = 0x000
    # -- generic command status (SCT 0) ---------------------------------
    LBA_OUT_OF_RANGE = 0x080
    CAPACITY_EXCEEDED = 0x081
    NAMESPACE_WRITE_PROTECTED = 0x020
    #: "Command Interrupted" (NVMe base spec SC 21h): the controller asks
    #: the host to resubmit later — the status an admission-control layer
    #: returns when it sheds load.
    COMMAND_INTERRUPTED = 0x021
    INVALID_FIELD = 0x002
    # -- media and data integrity errors (SCT 2) ------------------------
    WRITE_FAULT = 0x280
    UNRECOVERED_READ_ERROR = 0x281
    # -- KV command set (vendor-specific) --------------------------------
    KV_KEY_NOT_EXIST = 0x310
    KV_CAPACITY_EXCEEDED = 0x311
    KV_INVALID_KEY_SIZE = 0x312
    KV_INVALID_VALUE_SIZE = 0x313

    @property
    def is_error(self) -> bool:
        return self is not NvmeStatus.SUCCESS


#: Exception class -> completion status, most specific first (the lookup
#: walks this in order with isinstance, so subclasses must precede their
#: bases).
_STATUS_MAP = (
    (UncorrectableReadError, NvmeStatus.UNRECOVERED_READ_ERROR),
    (ProgramFailError, NvmeStatus.WRITE_FAULT),
    (EraseFailError, NvmeStatus.WRITE_FAULT),
    (DeviceReadOnlyError, NvmeStatus.NAMESPACE_WRITE_PROTECTED),
    (DeviceFullError, NvmeStatus.CAPACITY_EXCEEDED),
    (CapacityLimitError, NvmeStatus.KV_CAPACITY_EXCEEDED),
    (KeyNotFoundError, NvmeStatus.KV_KEY_NOT_EXIST),
    (InvalidKeyError, NvmeStatus.KV_INVALID_KEY_SIZE),
    (InvalidValueError, NvmeStatus.KV_INVALID_VALUE_SIZE),
    (AddressError, NvmeStatus.LBA_OUT_OF_RANGE),
)


def status_for_error(exc: BaseException) -> NvmeStatus:
    """Completion status a device would report for ``exc``.

    Unrecognized device errors map to ``INVALID_FIELD``; non-device
    exceptions (programming errors) are not NVMe-visible and raise.
    """
    for exc_type, status in _STATUS_MAP:
        if isinstance(exc, exc_type):
            return status
    if isinstance(exc, DeviceError):
        return NvmeStatus.INVALID_FIELD
    raise TypeError(f"{type(exc).__name__} is not a device-level error")


def commands_for_key(key_bytes: int) -> int:
    """NVMe commands needed to convey a key of ``key_bytes``.

    One command when the key fits inline; two otherwise (the second
    carries the key through a PRP transfer).
    """
    if key_bytes < 1:
        raise ConfigurationError(f"key length must be >= 1, got {key_bytes}")
    return 1 if key_bytes <= INLINE_KEY_BYTES else 2
