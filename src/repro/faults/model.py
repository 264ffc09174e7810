"""Deterministic fault injection for the NAND model.

Real PM983-class firmware spends significant machinery on reliability:
reads that need retry with tuned reference voltages, programs that fail
and force the page elsewhere, blocks that wear out and are retired into a
grown-defect list.  The paper's latency tails implicitly include those
recovery paths; this module makes them first-class simulator inputs, the
way SimpleSSD and Amber treat reliability events.

Two composable sources of faults, both owned by :class:`FaultInjector`:

* **Schedules** — exact, per-operation faults ("the next read of block 7
  is uncorrectable", "the next program anywhere fails").  Consumed FIFO
  by the first matching operation; what tests and repro cases use.
* **A statistical model** — per-operation fault probabilities drawn from
  a dedicated ``random.Random(seed)``.

Schedules are always consulted before the statistical model, so a test
can pin one exact fault on top of a statistical background rate.

The injector only *decides*; it never raises and never keeps time.  The
:class:`~repro.flash.nand.FlashArray` asks it per attempt and surfaces
the outcome (a :class:`ReadResult`, or a raised
:class:`~repro.errors.ProgramFailError` / :class:`~repro.errors.EraseFailError`);
recovery — retries, reallocation, retirement, read-only degradation — is
the FTL core's job (:mod:`repro.ftl.core`).

Determinism: the simulation engine is deterministic and the injector
consumes its RNG once per faultable operation in issue order, so two runs
with the same seed produce identical fault sequences, identical
``DeviceStats`` and identical traces.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError

#: Fault kinds a schedule entry may carry.
FAULT_KINDS = (
    "read_corrected",
    "read_uncorrectable",
    "program_fail",
    "erase_fail",
    "bad_block",
)


@dataclass(frozen=True)
class FaultConfig:
    """Reliability model parameters (all probabilities per operation).

    The defaults model perfect flash: every probability is zero, so an
    injector built from a bare ``FaultConfig()`` only ever acts on
    explicit schedules.
    """

    #: Seed for the statistical model's dedicated RNG.
    seed: int = 1
    #: Probability a read needs a retry sequence but then succeeds.
    read_corrected_prob: float = 0.0
    #: Probability a read stays unreadable through every retry.
    read_uncorrectable_prob: float = 0.0
    #: Probability a page program fails (status-check failure after tPROG).
    program_fail_prob: float = 0.0
    #: Probability a block erase fails (the block is then retired).
    erase_fail_prob: float = 0.0
    #: Read retries attempted before declaring data uncorrectable.
    max_read_retries: int = 3
    #: Base backoff before retry ``n`` (the FTL waits ``n * backoff`` —
    #: re-tuning read reference voltages takes longer each step).
    read_retry_backoff_us: float = 25.0

    def __post_init__(self) -> None:
        for name in (
            "read_corrected_prob",
            "read_uncorrectable_prob",
            "program_fail_prob",
            "erase_fail_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {value}"
                )
        if self.max_read_retries < 1:
            raise ConfigurationError(
                f"max_read_retries must be >= 1, got {self.max_read_retries}"
            )
        if self.read_retry_backoff_us < 0:
            raise ConfigurationError(
                f"read_retry_backoff_us must be >= 0, "
                f"got {self.read_retry_backoff_us}"
            )

    @property
    def statistical(self) -> bool:
        """Whether any statistical rate is non-zero."""
        return (
            self.read_corrected_prob > 0.0
            or self.read_uncorrectable_prob > 0.0
            or self.program_fail_prob > 0.0
            or self.erase_fail_prob > 0.0
        )


@dataclass(frozen=True)
class ReadResult:
    """Outcome of a read: clean, corrected after retries, or unreadable.

    Returned by every :meth:`~repro.flash.nand.FlashArray.read` attempt
    (``retries`` then counts this attempt's ordinal) and by the FTL
    core's recovering :meth:`~repro.ftl.core.FtlCore.read_page` (where
    ``retries`` is the whole sequence).
    """

    ok: bool = True
    retries: int = 0

    @property
    def corrected(self) -> bool:
        """The data came back good, but only after at least one retry."""
        return self.ok and self.retries > 0

    @property
    def uncorrectable(self) -> bool:
        """The data did not come back good on this attempt."""
        return not self.ok


#: Shared clean result for the unfaulted fast path.
READ_OK = ReadResult()


class FaultInjector:
    """Decides, deterministically, which flash operations fault.

    One injector serves one :class:`~repro.flash.nand.FlashArray`; its
    RNG state *is* device state, so parity experiments build one injector
    per device from the same :class:`FaultConfig`.
    """

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config if config is not None else FaultConfig()
        self._rng = random.Random(self.config.seed)
        #: kind -> FIFO of block filters (``None`` matches any block).
        self._scheduled: Dict[str, Deque[Optional[int]]] = {}
        #: Blocks gone permanently bad (grown defects at media level).
        self._bad_blocks: Set[int] = set()
        #: (block, page) -> retries needed to correct; ``None`` while the
        #: fault is uncorrectable.  Entries live for one retry sequence.
        self._active_reads: Dict[Tuple[int, int], Optional[int]] = {}
        #: Total faults injected, by kind (diagnostic only).
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, kind: str, block: Optional[int] = None, count: int = 1
    ) -> None:
        """Queue ``count`` exact faults of ``kind``.

        Each entry is consumed by the first matching operation: any
        operation of that kind when ``block`` is ``None``, else the first
        one targeting ``block``.  ``bad_block`` entries are consumed by
        the next program *or* erase of the block, which then goes
        permanently bad.
        """
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        queue = self._scheduled.setdefault(kind, deque())
        for _ in range(count):
            queue.append(block)

    def is_bad(self, block: int) -> bool:
        """Whether the media has given up on ``block``."""
        return block in self._bad_blocks

    def pending_scheduled(self) -> int:
        """Schedule entries not yet consumed (test/debug aid)."""
        return sum(len(queue) for queue in self._scheduled.values())

    def _take_scheduled(self, kind: str, block: int) -> bool:
        queue = self._scheduled.get(kind)
        if not queue:
            return False
        for position, wanted in enumerate(queue):
            if wanted is None or wanted == block:
                del queue[position]
                return True
        return False

    def _note(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # per-attempt decisions (consulted by FlashArray)
    # ------------------------------------------------------------------

    def read_attempt(self, block: int, page: int, attempt: int) -> bool:
        """Whether read ``attempt`` of (block, page) returns good data.

        Attempt 0 decides the fault (schedule first, then the statistical
        model) and pins it on the (block, page) pair; retries consult the
        pinned state, so a corrected fault clears after the decided
        number of retries while an uncorrectable one never does.  The
        recovery layer calls :meth:`finish_read` when it gives up or
        succeeds, releasing the pin.
        """
        key = (block, page)
        if attempt == 0:
            kind = None
            if self._take_scheduled("read_uncorrectable", block):
                kind = "read_uncorrectable"
            elif self._take_scheduled("read_corrected", block):
                kind = "read_corrected"
            elif self.config.statistical and (
                self.config.read_uncorrectable_prob > 0.0
                or self.config.read_corrected_prob > 0.0
            ):
                p_unc = self.config.read_uncorrectable_prob
                p_cor = self.config.read_corrected_prob
                draw = self._rng.random()
                if draw < p_unc:
                    kind = "read_uncorrectable"
                elif draw < p_unc + p_cor:
                    kind = "read_corrected"
            if kind is None:
                return True
            self._note(kind)
            self._active_reads[key] = (
                None if kind == "read_uncorrectable" else 1
            )
            return False
        if key not in self._active_reads:
            return True
        needed = self._active_reads[key]
        if needed is not None and attempt >= needed:
            del self._active_reads[key]
            return True
        return False

    def finish_read(self, block: int, page: int) -> None:
        """Release the retry pin after recovery succeeds or gives up."""
        self._active_reads.pop((block, page), None)

    def program_fails(self, block: int) -> bool:
        """Whether the next page program of ``block`` fails."""
        if block in self._bad_blocks:
            return True
        if self._take_scheduled("bad_block", block):
            self._bad_blocks.add(block)
            self._note("bad_block")
            return True
        if self._take_scheduled("program_fail", block):
            self._note("program_fail")
            return True
        p = self.config.program_fail_prob
        if p > 0.0 and self._rng.random() < p:
            self._note("program_fail")
            return True
        return False

    def erase_fails(self, block: int) -> bool:
        """Whether the next erase of ``block`` fails.

        A scheduled ``bad_block`` marks the block permanently bad on top
        of failing this erase.
        """
        if block in self._bad_blocks:
            return True
        if self._take_scheduled("bad_block", block):
            self._bad_blocks.add(block)
            self._note("bad_block")
            return True
        if self._take_scheduled("erase_fail", block):
            self._note("erase_fail")
            return True
        p = self.config.erase_fail_prob
        if p > 0.0 and self._rng.random() < p:
            self._note("erase_fail")
            return True
        return False
