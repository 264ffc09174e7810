"""The block device against a reference model under racing writes and TRIMs.

A Hypothesis state machine over a bare :class:`BlockSSD` with runtime
invariants on.  Rules start host commands at the current instant; ``drain``
runs them to completion, waits for the write buffer to reach flash and checks the
device against a dict of which units should be mapped.

A command's mapping effect lands in its last resume (the phase-2 commit
of a write, the unmap loop of a TRIM), so the order in which the
commands *complete* is the order the model applies them in.

The geometry is four dies of 32-page blocks: a unit's flush programs for
``PROGRAM_US``, so a TRIM issued up to two programs after a write can
land before, during or after that write's flush — the interleaving in
which a flush's commit once mapped a trimmed unit back in.
"""

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.blockftl.config import BlockSSDConfig
from repro.blockftl.device import BlockSSD
from repro.flash.geometry import Geometry
from repro.flash.timing import PROGRAM_US
from repro.sim.engine import Environment, Process
from repro.units import KIB

UNIT = 4 * KIB
#: Units primed on flash before the first rule, and units the rules address:
#: half of what the rules touch starts flash-resident, half unmapped.
PRIMED = 24
SPAN = 2 * PRIMED

GEOMETRY = Geometry(
    channels=2, dies_per_channel=2, planes_per_die=1,
    blocks_per_plane=16, pages_per_block=32, page_bytes=32 * KIB,
)

units = st.integers(min_value=0, max_value=SPAN - 1)


class BlockDeviceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.env = Environment()
        self.device = BlockSSD(
            self.env, GEOMETRY, config=BlockSSDConfig(invariants=True)
        )
        self.device.prime_sequential_fill(PRIMED)
        #: unit -> whether the model says it is mapped.
        self.model: Dict[int, bool] = {unit: unit < PRIMED for unit in range(SPAN)}
        #: Commands started since the last drain.
        self.started: List[Process] = []
        #: (mapped after, units) per completed command, in completion order.
        self.completed: List[Tuple[bool, range]] = []

    def _start(self, write: bool, offset: int, nbytes: int, delay_us: float = 0.0):
        device, env = self.device, self.env
        if write:
            covered = range(offset // UNIT, -(-(offset + nbytes) // UNIT))
        else:  # partial-unit TRIMs are advisory no-ops
            covered = range(-(-offset // UNIT), (offset + nbytes) // UNIT)

        def command():
            if delay_us:
                yield env.sleep(delay_us)
            if write:
                yield from device.write(offset, nbytes)
            else:
                yield from device.deallocate(offset, nbytes)
            self.completed.append((write, covered))

        self.started.append(env.process(command(), name="write" if write else "trim"))

    @rule(unit=units, count=st.sampled_from([1, 1, 2, 4]))
    def write_units(self, unit: int, count: int) -> None:
        count = min(count, SPAN - unit)
        self._start(True, unit * UNIT, count * UNIT)

    @rule(unit=units, half=st.booleans())
    def write_sub_unit(self, unit: int, half: bool) -> None:
        self._start(True, unit * UNIT + half * UNIT // 2, UNIT // 2)

    @rule(unit=units, count=st.sampled_from([1, 1, 3]))
    def trim(self, unit: int, count: int) -> None:
        count = min(count, SPAN - unit)
        self._start(False, unit * UNIT, count * UNIT)

    @rule(unit=units)
    def write_and_trim_at_one_instant(self, unit: int) -> None:
        self._start(True, unit * UNIT, UNIT)
        self._start(False, unit * UNIT, UNIT)

    @rule(unit=units, delay_us=st.floats(min_value=0.0, max_value=2 * PROGRAM_US))
    def trim_during_flush(self, unit: int, delay_us: float) -> None:
        self._start(True, unit * UNIT, UNIT)
        self._start(False, unit * UNIT, UNIT, delay_us)

    @rule()
    def drain(self) -> None:
        env, device = self.env, self.device
        if self.started:
            env.run_until_complete(env.all_of(self.started), limit=env.now + 1e6)
            self.started.clear()
        env.run_until_complete(env.process(device.drain()), limit=env.now + 1e6)
        for write, covered in self.completed:
            for unit in covered:
                self.model[unit] = write
        self.completed.clear()
        pagemap = device.pagemap
        mapped = {unit for unit in range(SPAN) if pagemap.is_mapped(unit)}
        assert mapped == {unit for unit, on in self.model.items() if on}
        assert pagemap.mapped_units == len(mapped)
        device.core.check_invariants("model drain")


BlockDeviceMachine.TestCase.settings = settings(
    derandomize=True,
    max_examples=40,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestBlockDeviceAgainstModel = BlockDeviceMachine.TestCase
