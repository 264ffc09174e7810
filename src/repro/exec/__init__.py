"""Sweep-execution engine: fan independent experiment points out.

The paper's evaluation is a grid of *independent* experiment points
(value-size x queue-depth cells, fill-level sweeps, fault-rate sweeps);
each point builds its own simulator from scratch and shares nothing with
its neighbors.  This package turns that independence into wall-clock
speed and re-run economy:

* :mod:`repro.exec.spec` — :class:`SweepSpec`/:class:`SweepPoint`, the
  declarative form of the ad-hoc loops the figure experiments used to
  hand-roll;
* :mod:`repro.exec.cache` — an on-disk result cache keyed by a content
  hash of (cell function, arguments, seed, code-version salt), so
  re-running a figure only recomputes points whose inputs changed;
* :mod:`repro.exec.runner` — :class:`SweepRunner`, which executes the
  missing points inline (``workers=1``) or over a ``multiprocessing``
  pool, and always assembles results in *spec order* so parallel output
  is byte-identical to serial.
"""
