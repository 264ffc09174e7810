"""Open-loop arrival processes: when requests hit the frontend.

Closed-loop runners (``kvbench.runner``) admit a new operation only when
a worker frees up, so offered load can never exceed service capacity and
queueing delay is invisible.  An *open-loop* process decides arrival
times independently of completions — the regime a serving system faces —
and makes offered load an experiment input.

Two generators cover the canonical traffic shapes:

* ``poisson`` — memoryless arrivals at a constant mean rate;
* ``mmpp`` — a two-state Markov-modulated Poisson process (baseline /
  burst), the standard bursty-traffic model.

Both draw from one seeded ``random.Random``, so a spec maps to
exactly one arrival schedule — byte-identical across runs, processes,
and cache replays.  Times are absolute simulated microseconds, strictly
increasing from zero.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError

#: Recognized arrival-process kinds.
PROCESSES = ("poisson", "mmpp")


@dataclass(frozen=True)
class ArrivalSpec:
    """One tenant's open-loop arrival schedule.

    ``rate_ops_s`` is the long-run mean offered load; the bursty process
    modulates around it but keeps the same mean, so sweeps over
    ``rate_ops_s`` are comparable across process kinds.
    """

    rate_ops_s: float
    n_requests: int
    process: str = "poisson"
    seed: int = 1
    #: mmpp: burst-state intensity multiplier over the baseline state.
    burst_factor: float = 8.0
    #: mmpp: long-run fraction of time spent in the burst state.
    burst_fraction: float = 0.1
    #: mmpp: mean dwell time per burst episode.
    mean_burst_us: float = 20_000.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rate_ops_s) and self.rate_ops_s > 0.0):
            raise ConfigurationError(
                f"arrival rate must be finite and > 0 ops/s, "
                f"got {self.rate_ops_s}"
            )
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.process not in PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.process!r}; "
                f"choose from {PROCESSES}"
            )
        if self.burst_factor < 1.0:
            raise ConfigurationError(
                f"burst_factor must be >= 1, got {self.burst_factor}"
            )
        if not 0.0 < self.burst_fraction < 1.0:
            raise ConfigurationError(
                f"burst_fraction must be in (0, 1), got {self.burst_fraction}"
            )
        if self.mean_burst_us <= 0.0:
            raise ConfigurationError(
                f"mean_burst_us must be > 0, got {self.mean_burst_us}"
            )

    @property
    def rate_per_us(self) -> float:
        """Mean arrival intensity in requests per simulated microsecond."""
        return self.rate_ops_s / 1e6


def _poisson(spec: ArrivalSpec) -> Iterator[float]:
    rng = random.Random(spec.seed)
    rate = spec.rate_per_us
    now = 0.0
    for _ in range(spec.n_requests):
        now += rng.expovariate(rate)
        yield now


def _mmpp(spec: ArrivalSpec) -> Iterator[float]:
    # Two-state MMPP with the state intensities solved so the long-run
    # mean equals rate_ops_s: with time fraction f in the burst state at
    # B x the baseline intensity, mean = base * (1 - f + f*B).
    rng = random.Random(spec.seed)
    f = spec.burst_fraction
    base_rate = spec.rate_per_us / (1.0 - f + f * spec.burst_factor)
    rates = (base_rate, base_rate * spec.burst_factor)
    # Exponential dwell times whose means realize the burst fraction.
    dwells = (spec.mean_burst_us * (1.0 - f) / f, spec.mean_burst_us)
    state = 0
    now = 0.0
    switch_at = rng.expovariate(1.0 / dwells[state])
    emitted = 0
    while emitted < spec.n_requests:
        gap = rng.expovariate(rates[state])
        if now + gap >= switch_at:
            # The state flips before this arrival would land.  The
            # Poisson process is memoryless, so discarding the drawn gap
            # and redrawing at the new state's intensity is exact.
            now = switch_at
            state = 1 - state
            switch_at = now + rng.expovariate(1.0 / dwells[state])
            continue
        now += gap
        yield now
        emitted += 1


def generate_arrivals(spec: ArrivalSpec) -> Iterator[float]:
    """Deterministic arrival-time stream for ``spec``.

    Yields exactly ``spec.n_requests`` strictly increasing absolute
    times (us).  The same spec always yields the same stream.
    """
    if spec.process == "poisson":
        return _poisson(spec)
    return _mmpp(spec)
