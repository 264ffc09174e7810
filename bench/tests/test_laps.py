"""Lap timing: where the marks fall and how laps combine."""

from bench.harness import quiet_wall_s
from bench.workloads.common import Laps


def test_every_passes_all_operations_and_marks_each_stride():
    laps = Laps()
    assert list(laps.every(range(7), stride=3)) == list(range(7))
    assert len(laps.marks) == 2
    laps = Laps()
    list(laps.every(range(6), stride=3))
    assert len(laps.marks) == 2, "a full last stride is marked like any other"


def test_segments_are_the_gaps_between_marks():
    laps = Laps()
    laps.marks = [1.0, 1.5, 3.0]
    assert laps.segments() == [0.5, 1.5]


def test_quiet_wall_takes_each_lap_from_its_fastest_repetition():
    # A burst hits lap 0 of one repetition and lap 1 of the other: no
    # whole repetition is clean, the lap-wise sum is.
    assert quiet_wall_s([[1.0, 3.0], [2.0, 1.0]]) == 2.0
