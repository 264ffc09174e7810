"""Unit tests for size/time helpers."""

import pytest

from repro.units import (
    GIB,
    KIB,
    MIB,
    MSEC,
    align_up,
    ceil_div,
    mib_per_sec,
    ms,
    pretty_size,
    pretty_time,
)


def test_size_constants_chain():
    assert KIB == 1024
    assert MIB == 1024 * KIB
    assert GIB == 1024 * MIB


def test_time_conversions_roundtrip():
    assert ms(5) == 5000.0
    assert ms(7.5) / MSEC == pytest.approx(7.5)


def test_mib_per_sec():
    # 1 MiB in 1 second.
    assert mib_per_sec(MIB, 1_000_000.0) == pytest.approx(1.0)
    # 512 MiB/s.
    assert mib_per_sec(512 * MIB, 1_000_000.0) == pytest.approx(512.0)


def test_mib_per_sec_zero_interval_is_zero():
    assert mib_per_sec(MIB, 0.0) == 0.0


def test_align_up_basics():
    assert align_up(0, 1024) == 0
    assert align_up(1, 1024) == 1024
    assert align_up(1024, 1024) == 1024
    assert align_up(1025, 1024) == 2048


def test_align_up_rejects_bad_alignment():
    with pytest.raises(ValueError):
        align_up(10, 0)


def test_ceil_div():
    assert ceil_div(0, 8) == 0
    assert ceil_div(1, 8) == 1
    assert ceil_div(8, 8) == 1
    assert ceil_div(9, 8) == 2


def test_ceil_div_rejects_bad_denominator():
    with pytest.raises(ValueError):
        ceil_div(5, 0)


def test_pretty_size():
    assert pretty_size(512) == "512B"
    assert pretty_size(24 * KIB) == "24.0KiB"
    assert pretty_size(3 * MIB) == "3.0MiB"


def test_pretty_time():
    assert pretty_time(12.0) == "12.0us"
    assert pretty_time(1500.0) == "1.50ms"
    assert pretty_time(2_500_000.0) == "2.50s"
