"""Host-side device driver model (the paper's KDD).

The kernel device driver turns API calls into NVMe commands: it builds
submission entries, rings doorbells, and handles completions.  Costs
modeled per command:

* host CPU time, charged to the :class:`~repro.metrics.cpu.CpuAccountant`
  (this is the "thin" KV stack whose CPU the paper compares against
  RocksDB's "thick" one);
* a serialized submission path (doorbell + SQ tail update), which becomes
  the binding bottleneck for command-heavy traffic — the mechanism behind
  Fig. 8's large-key bandwidth cliff;
* synchronous mode additionally burns polling/wakeup CPU per command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.errors import ConfigurationError
from repro.metrics.cpu import CpuAccountant
from repro.nvme.command import NvmeStatus
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.trace.tracer import Tracer


@dataclass(frozen=True)
class DriverCosts:
    """Per-command host costs (microseconds)."""

    #: Serialized submission-path occupancy per command.
    submit_us: float = 4.0
    #: Host CPU to build and submit one command (async mode).
    cpu_async_us: float = 2.0
    #: Additional host CPU in synchronous mode (wait/wakeup or polling).
    cpu_sync_extra_us: float = 6.0
    #: Completion handling CPU per command.
    cpu_complete_us: float = 1.0

    def __post_init__(self) -> None:
        for field_name in (
            "submit_us",
            "cpu_async_us",
            "cpu_sync_extra_us",
            "cpu_complete_us",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigurationError(f"{field_name} must be >= 0")


class KernelDeviceDriver:
    """Submission/completion path shared by the block and KV APIs."""

    def __init__(
        self,
        env: Environment,
        cpu: CpuAccountant,
        costs: Optional[DriverCosts] = None,
        name: str = "kdd",
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.env = env
        self.cpu = cpu
        self.costs = costs if costs is not None else DriverCosts()
        self.name = name
        #: Optional span tracer; submissions/completions land on the
        #: driver's own timeline track.
        self.tracer = tracer
        self._submission_path = Resource(env, 1, name=f"{name}.submit")
        self.commands_submitted = 0
        self.commands_completed = 0
        #: Completions carrying a non-SUCCESS status.
        self.commands_failed = 0
        #: The status of the most recent completion (test/debug hook).
        self.last_status = NvmeStatus.SUCCESS

    def submit(
        self, ncommands: int, sync: bool, component: str
    ) -> Generator[Event, None, None]:
        """Pass ``ncommands`` through the submission path (timed).

        Charges host CPU to ``component`` and occupies the serialized
        submission path once per command.
        """
        if ncommands < 1:
            raise ConfigurationError(f"ncommands must be >= 1, got {ncommands}")
        per_command = self.costs.cpu_async_us + (
            self.costs.cpu_sync_extra_us if sync else 0.0
        )
        self.cpu.charge(component, ncommands * per_command)
        tracer = self.tracer
        trace = tracer is not None and tracer.wants("nvme")
        started = self.env.now if trace else 0.0
        for _ in range(ncommands):
            yield self._submission_path.serve(self.costs.submit_us)
        self.commands_submitted += ncommands
        if trace:
            tracer.complete(
                self.name, "submit", "nvme", self.env.now - started,
                args={"n": ncommands, "sync": sync},
            )

    def complete(
        self,
        ncommands: int,
        component: str,
        status: NvmeStatus = NvmeStatus.SUCCESS,
    ) -> None:
        """Account completion handling for ``ncommands`` (CPU only).

        ``status`` is the completion-queue status the device reported;
        error completions cost the same CPU but are counted separately
        (the host error path proper — retries, log-page reads — is out
        of scope).
        """
        if ncommands < 1:
            raise ConfigurationError(f"ncommands must be >= 1, got {ncommands}")
        self.cpu.charge(component, ncommands * self.costs.cpu_complete_us)
        self.commands_completed += ncommands
        self.last_status = status
        if status.is_error:
            self.commands_failed += ncommands
        tracer = self.tracer
        if tracer is not None and tracer.wants("nvme"):
            tracer.instant(
                self.name, "complete", "nvme",
                args={"n": ncommands, "status": status.name},
            )
