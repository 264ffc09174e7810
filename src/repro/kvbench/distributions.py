"""Access-pattern generators: sequential, uniform random, Zipfian, sliding
window.

These are the KVbench knobs the paper's methodology section lists (Sec.
III): sequential, uniformly random, and Zipf-skewed key orders, plus the
sliding-window pseudo-random pattern its footnote describes for the GC
experiment ("a small sliding window across the whole distribution of keys
from the insert phase, randomly choosing keys within the window").

All generators draw key *indices* in ``[0, population)``; the workload
layer maps indices to keys through a :class:`~repro.kvftl.population.
KeyScheme`, so patterns compose with any key naming.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from typing import Iterator

from repro.errors import WorkloadError
from repro.units import float_sum

#: Zipf skew of every skewed draw (YCSB's default constant).
ZIPF_THETA = 0.99
#: Share of the population the sliding window covers at any moment.
SLIDING_WINDOW_FRACTION = 0.05


def sequential_indices(population: int, count: int) -> Iterator[int]:
    """``count`` indices walking the population in order, wrapping around."""
    _check(population, count)
    for step in range(count):
        yield step % population


def uniform_indices(
    population: int, count: int, seed: int = 1
) -> Iterator[int]:
    """``count`` independent uniform draws: ``randrange(population)`` of
    ``Random(seed)`` each, run in C.

    ``randrange(n)`` is ``_randbelow(n)``: ``getrandbits`` of
    ``n.bit_length()`` bits, redrawn while the draw is ``>= n`` (the same
    on CPython 3.10-3.13).  Filtering one stream of those draws consumes
    the generator exactly as repeated calls do.
    """
    _check(population, count)
    draws = map(random.Random(seed).getrandbits, repeat(population.bit_length()))
    return islice(filter(population.__gt__, draws), count)


class ZipfianGenerator:
    """Zipf-distributed indices (skew :data:`ZIPF_THETA`) via the
    YCSB/Gray et al. algorithm.

    Constant-time draws after an O(population) harmonic precomputation.
    ``scramble=True`` hashes ranks across the key space so the hot set is
    scattered (YCSB's scrambled-zipfian), which is what a hash-indexed
    device actually experiences.
    """

    def __init__(
        self,
        population: int,
        seed: int = 1,
        scramble: bool = True,
    ) -> None:
        if population < 1:
            raise WorkloadError(f"population must be >= 1, got {population}")
        theta = ZIPF_THETA
        self.population = population
        self.scramble = scramble
        self._rng = random.Random(seed)
        self._zetan = float_sum(1.0 / (i ** theta) for i in range(1, population + 1))
        self._zeta2 = 1.0 + 0.5 ** theta if population >= 2 else 1.0
        self._alpha = 1.0 / (1.0 - theta)
        # eta only matters for ranks >= 2, so tiny populations (whose
        # zeta(2) equals zeta(n), a zero denominator) simply skip it.
        self._eta = (
            (1.0 - (2.0 / population) ** (1.0 - theta))
            / (1.0 - self._zeta2 / self._zetan)
            if population >= 3
            else 0.0
        )

    def next_index(self) -> int:
        """Draw one index (rank 0 is the hottest)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0 or self.population == 1:
            rank = 0
        elif uz < self._zeta2:
            rank = 1
        else:
            rank = int(self.population * (self._eta * u - self._eta + 1.0) ** self._alpha)
            rank = min(rank, self.population - 1)
        if not self.scramble:
            return rank
        # FNV-style scatter keeps the draw O(1) and deterministic.
        scrambled = (rank * 0x100000001B3 + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF
        return scrambled % self.population

    def indices(self, count: int) -> Iterator[int]:
        """``count`` consecutive draws."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        for _ in range(count):
            yield self.next_index()


def sliding_window_indices(
    population: int, count: int, seed: int = 1
) -> Iterator[int]:
    """The paper's pseudo-random update pattern (Fig. 6c footnote).

    A window of ``SLIDING_WINDOW_FRACTION * population`` keys slides
    across the insert-order key space; each draw is uniform inside the
    current window.  The window advances so that it traverses the whole
    population exactly once over ``count`` draws.
    """
    _check(population, count)
    rng = random.Random(seed)
    window = max(1, int(population * SLIDING_WINDOW_FRACTION))

    def generate() -> Iterator[int]:
        for step in range(count):
            base = int(step / max(count, 1) * population)
            yield (base + rng.randrange(window)) % population

    return generate()


def _check(population: int, count: int) -> None:
    if population < 1:
        raise WorkloadError(f"population must be >= 1, got {population}")
    if count < 0:
        raise WorkloadError(f"count must be >= 0, got {count}")
