"""Tests for the YCSB workload module (the paper's future-work item)."""

import pytest

from repro.core.experiment import build_kv_rig, build_lsm_rig, lab_geometry
from repro.errors import InvariantViolation, KeyNotFoundError, WorkloadError
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import Operation, OpType
from repro.kvbench.ycsb import YCSBDriver, YCSBSpec, generate_ycsb
from repro.kvftl.population import KeyScheme


def spec_for(workload, n_ops=400, population=500, **kwargs):
    return YCSBSpec(
        workload=workload, n_ops=n_ops, population=population,
        value_bytes=500, **kwargs,
    )


# -- generation --------------------------------------------------------------


def test_mix_fractions_roughly_respected():
    spec = spec_for("A", n_ops=4000)
    kinds = [op.op for op in generate_ycsb(spec)]
    reads = sum(1 for kind in kinds if kind is OpType.READ)
    assert 0.42 < reads / len(kinds) < 0.58


def test_workload_c_is_read_only():
    spec = spec_for("C")
    for op in generate_ycsb(spec):
        assert op.op is OpType.READ
        assert not (op.scan_length or op.rmw)


def test_workload_d_reads_skew_to_latest():
    spec = spec_for("D", n_ops=3000, population=3000)
    read_indices = [
        op.key_index
        for op in generate_ycsb(spec)
        if op.op is OpType.READ
    ]
    newest_half = sum(1 for index in read_indices if index >= 1500)
    assert newest_half / len(read_indices) > 0.7


def test_workload_d_inserts_extend_keyspace():
    spec = spec_for("D", n_ops=3000, population=100)
    inserts = [
        op.key_index
        for op in generate_ycsb(spec)
        if op.op is OpType.INSERT
    ]
    assert inserts  # 5% of 3000
    assert min(inserts) == 100
    assert inserts == sorted(inserts)


def test_workload_e_mostly_scans():
    spec = spec_for("E", n_ops=2000)
    scans = sum(1 for op in generate_ycsb(spec) if op.scan_length > 0)
    assert 0.9 < scans / 2000 <= 1.0


def test_workload_f_marks_rmw():
    spec = spec_for("F", n_ops=2000)
    rmws = sum(1 for op in generate_ycsb(spec) if op.rmw)
    assert 0.4 < rmws / 2000 < 0.6


def test_unknown_workload_rejected():
    with pytest.raises(WorkloadError):
        YCSBSpec(workload="Z", n_ops=10, population=10)


def test_generation_is_deterministic():
    first = [(op.op, op.key) for op in generate_ycsb(spec_for("A"))]
    second = [(op.op, op.key) for op in generate_ycsb(spec_for("A"))]
    assert first == second


# -- execution against the stacks ------------------------------------------------


def _loaded_kv_rig(spec):
    rig = build_kv_rig(lab_geometry(8))
    rig.device.fast_fill(spec.population, spec.value_bytes, spec.key_scheme)
    return rig


def run_ycsb(rig, driver, spec):
    return execute_workload(
        rig.env, driver, generate_ycsb(spec), queue_depth=4, name="ycsb"
    )


def test_workload_a_runs_on_kv_ssd():
    spec = spec_for("A", n_ops=600)
    rig = _loaded_kv_rig(spec)
    driver = YCSBDriver(rig.adapter, spec)
    result = run_ycsb(rig, driver, spec)
    assert result.completed_ops == 600
    assert result.failed_ops == 0


def test_workload_e_scans_on_kv_ssd_via_iterator():
    spec = spec_for("E", n_ops=120, scan_length=10)
    rig = _loaded_kv_rig(spec)
    driver = YCSBDriver(rig.adapter, spec)
    result = run_ycsb(rig, driver, spec)
    assert driver.scans_run > 100
    assert result.completed_ops == 120


def test_workload_e_scans_on_lsm_natively():
    spec = spec_for("E", n_ops=120, scan_length=10,
                    key_scheme=KeyScheme(prefix=b"user", digits=12))
    rig = build_lsm_rig(lab_geometry(8))
    entries = {
        spec.key_scheme.key_for(i): spec.value_bytes
        for i in range(spec.population)
    }
    rig.store.prime_fill(entries, level=3)
    driver = YCSBDriver(rig.adapter, spec)
    result = run_ycsb(rig, driver, spec)
    assert driver.scans_run > 100
    assert result.completed_ops == 120


class _ThirdReadRaises:
    """KV adapter whose third point read raises ``error``."""

    def __init__(self, adapter, error):
        self.inner, self.error = adapter, error
        self.env, self.device = adapter.env, adapter.device
        self.scan, self.iterate = adapter.scan, adapter.iterate
        self.reads = 0

    def execute(self, op):
        self.reads += 1
        if self.reads == 3:
            raise self.error
        return (yield from self.inner.execute(op))


def test_emulated_scan_ends_on_a_device_error_only():
    """A missing tail key ends an emulated scan; a broken invariant under
    one of its point reads is not "the end of the key space"."""
    spec = spec_for("E", scan_length=10)
    rig = _loaded_kv_rig(spec)
    scan = Operation(OpType.READ, spec.key_scheme.key_for(0), 0, 0, scan_length=10)

    def run(error):
        driver = YCSBDriver(_ThirdReadRaises(rig.adapter, error), spec)
        process = rig.env.process(driver.execute(scan))
        return rig.env.run_until_complete(process, limit=rig.env.now + 1e6)

    assert run(KeyNotFoundError("tail")) == 2 * spec.value_bytes
    with pytest.raises(InvariantViolation):
        run(InvariantViolation("index corrupt"))


def test_workload_f_read_modify_write_composition():
    spec = spec_for("F", n_ops=400)
    rig = _loaded_kv_rig(spec)
    driver = YCSBDriver(rig.adapter, spec)
    reads_before = rig.device.stats.host_reads
    writes_before = rig.device.stats.host_writes
    run_ycsb(rig, driver, spec)
    assert driver.rmws_run > 100
    # Every RMW performed both a device read and a device write.
    assert rig.device.stats.host_reads - reads_before >= driver.rmws_run
    assert rig.device.stats.host_writes - writes_before >= driver.rmws_run


def test_lsm_scan_returns_live_ordered_bytes():
    rig = build_lsm_rig(lab_geometry(8))
    scheme = KeyScheme(prefix=b"scan", digits=12)
    entries = {scheme.key_for(i): 1000 for i in range(200)}
    rig.store.prime_fill(entries, level=3)

    def session(env):
        nbytes = yield env.process(rig.store.scan(scheme.key_for(50), 20))
        return nbytes

    nbytes = rig.env.run_until_complete(rig.env.process(session(rig.env)))
    assert nbytes == 20 * 1000
