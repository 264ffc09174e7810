"""Unit tests for the measurement instruments."""

import pytest

from repro.ftl.core import DeviceStats
from repro.metrics.bandwidth import BandwidthTracker
from repro.metrics.cpu import CpuAccountant
from repro.metrics.latency import LatencyRecorder, percentile
from repro.units import MIB


# -- latency ------------------------------------------------------------------


def test_percentile_interpolates():
    samples = [10.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0.0) == 10.0
    assert percentile(samples, 1.0) == 40.0
    assert percentile(samples, 0.5) == pytest.approx(25.0)


def test_percentile_rejects_empty_and_bad_fraction():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_latency_recorder_summary():
    recorder = LatencyRecorder("test")
    for value in (10.0, 20.0, 30.0):
        recorder.record(value, "read")
    summary = recorder.summary("read")
    assert summary.count == 3
    assert summary.mean == pytest.approx(20.0)
    assert summary.minimum == 10.0
    assert summary.maximum == 30.0
    assert summary.p50 == pytest.approx(20.0)


def test_latency_summary_p999_tracks_extreme_tail():
    recorder = LatencyRecorder("tail")
    # 999 fast samples and one very slow one: p99 stays low while p999
    # reaches into the outlier.
    for _ in range(999):
        recorder.record(10.0, "read")
    recorder.record(10_000.0, "read")
    summary = recorder.summary("read")
    assert summary.p99 == pytest.approx(10.0)
    assert summary.p999 > summary.p99
    as_dict = summary.as_dict()
    assert as_dict["p999"] == pytest.approx(summary.p999)
    assert as_dict["p99"] == pytest.approx(summary.p99)


def test_latency_recorder_labels_and_merge():
    recorder = LatencyRecorder()
    recorder.record(5.0, "read")
    recorder.record(15.0, "insert")
    assert recorder.labels() == ["insert", "read"]
    assert recorder.count() == 2
    assert recorder.mean() == pytest.approx(10.0)


def test_latency_recorder_rejects_negative():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.record(-1.0)


def test_latency_recorder_empty_summary_raises():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        recorder.summary()


# -- bandwidth -----------------------------------------------------------------


def test_bandwidth_windows_accumulate():
    tracker = BandwidthTracker(window_us=100.0, start_us=0.0)
    tracker.record(10.0, 1000)
    tracker.record(50.0, 1000)
    tracker.record(150.0, 4000)
    tracker.finish(200.0)
    points = tracker.points
    assert len(points) == 2
    assert points[0].bytes_moved == 2000
    assert points[0].operations == 2
    assert points[1].bytes_moved == 4000


def test_bandwidth_empty_windows_materialized():
    tracker = BandwidthTracker(window_us=10.0, start_us=0.0)
    tracker.record(5.0, 100)
    tracker.record(45.0, 100)
    tracker.finish(50.0)
    series = tracker.series_mib_per_sec()
    assert len(series) == 5
    assert series[1] == 0.0
    assert series[2] == 0.0


def test_bandwidth_rejects_time_travel():
    tracker = BandwidthTracker(window_us=10.0, start_us=0.0)
    tracker.record(5.0, 100)
    with pytest.raises(ValueError):
        tracker.record(4.0, 100)


def test_bandwidth_overall_rate():
    tracker = BandwidthTracker(window_us=1000.0, start_us=0.0)
    tracker.record(1_000_000.0, MIB)  # 1 MiB at t=1s
    assert tracker.overall_mib_per_sec() == pytest.approx(1.0)


def test_bandwidth_minimum_window():
    tracker = BandwidthTracker(window_us=10.0, start_us=0.0)
    tracker.record(5.0, 1000)
    tracker.record(15.0, 10)
    tracker.finish(20.0)
    assert tracker.minimum_window_mib_per_sec() < tracker.series_mib_per_sec()[0]


# -- CPU ---------------------------------------------------------------------------


def test_cpu_accountant_report():
    """The one total the figures read: every charge, summed."""
    cpu = CpuAccountant()
    cpu.charge(30.0)
    cpu.charge(10.0)
    assert cpu.total_busy_us == pytest.approx(40.0)


def test_cpu_rejects_negative_charge():
    cpu = CpuAccountant()
    with pytest.raises(ValueError):
        cpu.charge(-1.0)


# -- space books (DeviceStats) ---------------------------------------------------


def test_space_accountant_amplification():
    space = DeviceStats()
    space.record_store(16, 50, 1024)
    assert space.amplification() == pytest.approx(1024 / 66)
    assert space.amplification_value_only() == pytest.approx(1024 / 50)


def test_space_accountant_remove_balances():
    space = DeviceStats()
    space.record_store(16, 50, 1024)
    space.record_remove(16, 50, 1024)
    with pytest.raises(ValueError):
        space.amplification()


def test_space_accountant_unmatched_remove_rejected():
    space = DeviceStats()
    with pytest.raises(ValueError):
        space.record_remove(1, 1, 1)


# -- device counters -----------------------------------------------------------------


def test_device_counters_delta_and_waf():
    counters = DeviceStats()
    counters.host_write_bytes = 1000
    counters.gc_relocated_bytes = 500
    snapshot = counters.snapshot()
    counters.host_write_bytes = 3000
    counters.gc_relocated_bytes = 1500
    counters.gc_events.append((1.0, True))
    delta = counters.delta(snapshot)
    assert delta.host_write_bytes == 2000
    assert delta.gc_relocated_bytes == 1000
    assert delta.gc_events == [(1.0, True)]
    assert delta.write_amplification() == pytest.approx(1.5)


def test_write_amplification_idle_is_one():
    assert DeviceStats().write_amplification() == 1.0
