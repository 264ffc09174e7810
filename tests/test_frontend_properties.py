"""Property-based tests (hypothesis) on the open-loop serving frontend.

Four invariants the frontend must hold for *any* configuration, not just
the calibrated sweep scenario:

* arrival processes are seed-deterministic, strictly increasing, emit
  exactly ``n_requests`` times, and realize their configured mean rate;
* bounded admission never acknowledges a shed request — shed requests
  carry the ``COMMAND_INTERRUPTED`` status and never reach the device;
* the batcher preserves per-tenant FIFO order;
* the scheduler never starves a non-empty SLO class.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.frontend.arrivals import PROCESSES, ArrivalSpec, generate_arrivals
from repro.frontend.frontend import run_frontend
from repro.frontend.spec import FrontendSpec, SLOClass, TenantLoad
from repro.nvme.command import NvmeStatus

#: Mean-rate tolerance per process kind.  The MMPP's dwell-time variance
#: converges slowest; the homogeneous Poisson fastest.
RATE_TOLERANCE = {"poisson": 0.10, "mmpp": 0.25}


# -- arrival processes ---------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    process=st.sampled_from(PROCESSES),
    rate_kops=st.sampled_from((8.0, 64.0, 400.0)),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_arrivals_deterministic_monotonic_rate_correct(
    process: str, rate_kops: float, seed: int
) -> None:
    n_requests = 3000
    rate_per_us = rate_kops * 1000.0 / 1e6
    # The realized mean only converges over a window holding many
    # modulation cycles, so scale the mmpp dwell to the expected span
    # (the mean is invariant to this time scaling).
    span = n_requests / rate_per_us
    modulation = {}
    if process == "mmpp":
        modulation["mean_burst_us"] = span / 600.0
    spec = ArrivalSpec(
        rate_ops_s=rate_kops * 1000.0,
        n_requests=n_requests,
        process=process,
        seed=seed,
        **modulation,
    )
    times = list(generate_arrivals(spec))
    assert times == list(generate_arrivals(spec))  # seed-deterministic
    assert len(times) == spec.n_requests
    assert times[0] > 0.0
    assert all(b > a for a, b in zip(times, times[1:]))  # strictly increasing
    realized_rate = spec.n_requests / times[-1]  # requests per us
    relative_error = abs(realized_rate - spec.rate_per_us) / spec.rate_per_us
    assert relative_error < RATE_TOLERANCE[process]


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_arrival_rate_must_be_finite_and_positive(rate: float) -> None:
    """``nan`` slipped past a ``<= 0`` check into a table of ``nan``
    latencies, and ``inf`` into a schedule of zero gaps."""
    with pytest.raises(ConfigurationError, match="finite and > 0"):
        ArrivalSpec(rate_ops_s=rate, n_requests=10)


def test_a_tenant_refuses_a_population_its_keys_cannot_name() -> None:
    """A 14-letter name leaves one digit of a 16-byte key: ten keys, not
    512 (the schedule used to fail mid-run on key index 137)."""
    arrivals = ArrivalSpec(rate_ops_s=1_000.0, n_requests=10)
    with pytest.raises(ConfigurationError, match="at most 10 keys"):
        TenantLoad(name="analyticsbatch", slo="lat", arrivals=arrivals,
                   population=512)
    assert TenantLoad(name="analyticsbatch", slo="lat", arrivals=arrivals,
                      population=10).key_digits == 1


# -- serving invariants --------------------------------------------------


def _overload_spec(
    scheduler: str, admit_capacity: int, seed: int
) -> FrontendSpec:
    """A two-class overload: offered load far past device capacity, so an
    admission window a little past the ``DISPATCH_WIDTH * BATCH_MAX`` = 64
    requests the dispatchers hold in flight must shed, and both class
    queues stay deep behind the busy dispatchers."""
    classes = (
        SLOClass(name="lat", deadline_us=2_000.0),
        SLOClass(name="bulk", deadline_us=20_000.0),
    )
    tenants = (
        TenantLoad(
            name="lat",
            slo="lat",
            arrivals=ArrivalSpec(
                rate_ops_s=400_000.0, n_requests=160, seed=seed
            ),
            op="read",
            population=64,
            seed=seed,
        ),
        TenantLoad(
            name="bulk",
            slo="bulk",
            arrivals=ArrivalSpec(
                rate_ops_s=200_000.0,
                n_requests=80,
                process="mmpp",
                seed=seed + 1,
            ),
            op="read",
            value_bytes=512,
            population=64,
            seed=seed + 1,
        ),
    )
    return FrontendSpec(
        classes=classes,
        tenants=tenants,
        admit_capacity=admit_capacity,
        scheduler=scheduler,
        seed=seed,
    )


@settings(max_examples=6, deadline=None)
@given(
    scheduler=st.sampled_from(("edf", "fifo")),
    admit_capacity=st.integers(min_value=72, max_value=136),
    seed=st.integers(min_value=1, max_value=1000),
)
def test_admission_never_acknowledges_a_shed_request(
    scheduler: str, admit_capacity: int, seed: int
) -> None:
    spec = _overload_spec(scheduler, admit_capacity, seed)
    result = run_frontend(spec, keep_requests=True)
    assert result.requests is not None
    assert result.shed > 0  # the overload must actually trip admission
    for request in result.requests:
        if request.shed:
            assert request.status is NvmeStatus.COMMAND_INTERRUPTED
            assert request.admit_us < 0.0  # never admitted
            assert request.batch_us < 0.0  # never batched
            assert request.submit_us < 0.0  # never reached the device
        else:
            assert request.status is not NvmeStatus.COMMAND_INTERRUPTED
    terminal = result.completed + result.failed
    assert terminal == result.admitted
    assert result.offered == result.admitted + result.shed


@settings(max_examples=6, deadline=None)
@given(
    scheduler=st.sampled_from(("edf", "fifo")),
    seed=st.integers(min_value=1, max_value=1000),
)
def test_batcher_preserves_per_tenant_fifo(scheduler: str, seed: int) -> None:
    spec = _overload_spec(scheduler, admit_capacity=128, seed=seed)
    result = run_frontend(spec, keep_requests=True)
    assert result.requests is not None
    batched = [r for r in result.requests if r.batch_seq >= 0]
    assert batched
    for tenant in ("lat", "bulk"):
        order = sorted(
            (r for r in batched if r.tenant == tenant),
            key=lambda r: r.batch_seq,
        )
        sequences = [r.seq for r in order]
        assert sequences == sorted(sequences)


def _sustained_spec(scheduler: str, seed: int) -> FrontendSpec:
    """Sustained overload whose arrival span (~3.5 ms) far exceeds the
    deadline gap (2 ms), so an aged bulk head's absolute deadline falls
    before fresh lat arrivals' — a deadline-aware scheduler *must*
    interleave the classes, and a class-priority scheduler that simply
    drains lat first would fail the interleave assertion below.  The
    admission window (256) holds far more than the 64 requests in
    flight, so both class queues stay deep while the dispatchers are
    busy."""
    classes = (
        SLOClass(name="lat", deadline_us=500.0),
        SLOClass(name="bulk", deadline_us=2_500.0),
    )
    tenants = (
        TenantLoad(
            name="lat",
            slo="lat",
            arrivals=ArrivalSpec(
                rate_ops_s=200_000.0, n_requests=700, seed=seed
            ),
            op="read",
            population=64,
            seed=seed,
        ),
        TenantLoad(
            name="bulk",
            slo="bulk",
            arrivals=ArrivalSpec(
                rate_ops_s=85_000.0, n_requests=300, seed=seed + 1
            ),
            op="read",
            value_bytes=512,
            population=64,
            seed=seed + 1,
        ),
    )
    return FrontendSpec(
        classes=classes,
        tenants=tenants,
        admit_capacity=256,
        scheduler=scheduler,
        seed=seed,
    )


@settings(max_examples=6, deadline=None)
@given(
    scheduler=st.sampled_from(("edf", "fifo")),
    seed=st.integers(min_value=1, max_value=1000),
)
def test_scheduler_never_starves_a_nonempty_class(
    scheduler: str, seed: int
) -> None:
    """Under sustained overload every admitted request still completes,
    and the bulk class is served interleaved with the latency class
    rather than held until the latency queue drains: some bulk batch is
    formed while a lat request admitted before it is still queued."""
    spec = _sustained_spec(scheduler, seed)
    result = run_frontend(spec, keep_requests=True)
    assert result.requests is not None
    admitted = [r for r in result.requests if not r.shed]
    assert all(r.complete_us >= 0.0 for r in admitted)
    lat = [r for r in admitted if r.slo == "lat"]
    bulk_batches = [r.batch_us for r in admitted if r.slo == "bulk"]
    assert lat and bulk_batches
    assert any(
        r.admit_us < batch_us < r.batch_us
        for batch_us in bulk_batches
        for r in lat
    )
