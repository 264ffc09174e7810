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

from typing import TYPE_CHECKING, Optional

from repro.metrics.cpu import CpuAccountant
from repro.nvme.command import NvmeStatus
from repro.sim.engine import Environment
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.trace.tracer import Tracer


# -- per-command host costs (microseconds) -----------------------------------
#: Serialized submission-path occupancy per command.
SUBMIT_US = 4.0
#: Host CPU to build and submit one command (async mode).
CPU_ASYNC_US = 2.0
#: Additional host CPU in synchronous mode (wait/wakeup or polling).
CPU_SYNC_EXTRA_US = 6.0
#: Completion handling CPU per command.
CPU_COMPLETE_US = 1.0

#: The driver's timeline track and process-label prefix.
TRACK = "kdd"


class KernelDeviceDriver:
    """The state the block and KV APIs share: the CPU accountant, the
    serialized submission path, the command counters and the tracer.

    A command's host steps — CPU charges, one :data:`SUBMIT_US` serve per
    submission entry, the success completion — run in the command
    envelope's own frame (:meth:`repro.api.envelope.DeviceAPI._command`);
    the driver keeps the error completion, :meth:`complete_error`.
    """

    def __init__(
        self,
        env: Environment,
        cpu: CpuAccountant,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.env = env
        self.cpu = cpu
        #: Optional span tracer; submissions/completions land on the
        #: driver's own timeline track.
        self.tracer = tracer
        #: One slot: a submission entry occupies it for :data:`SUBMIT_US`.
        self.submission_path = Resource(env, 1, name=f"{TRACK}.submit")
        self.commands_submitted = 0
        self.commands_completed = 0
        #: Completions carrying a non-SUCCESS status.
        self.commands_failed = 0
        #: The status of the most recent completion (test/debug hook).
        self.last_status = NvmeStatus.SUCCESS

    def complete_error(self, status: NvmeStatus) -> None:
        """Account one completion carrying the error ``status`` the
        device reported (CPU only).

        It costs a success's completion CPU but is counted separately
        (the host error path proper — retries, log-page reads — is out of
        scope).
        """
        self.cpu.charge(CPU_COMPLETE_US)
        self.commands_completed += 1
        self.commands_failed += 1
        self.last_status = status
        tracer = self.tracer
        if tracer is not None and tracer.wants("nvme"):
            tracer.instant(
                TRACK, "complete", "nvme", args={"n": 1, "status": status.name},
            )
