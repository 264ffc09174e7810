"""Tests for the sweep-execution engine (`repro.exec`).

The load-bearing claims verified here:

* a spec's results are byte-identical at any worker count (parallel
  workers run the same self-contained cells, and assembly is in spec
  order, never completion order);
* a cache hit returns a result indistinguishable from a cold compute;
* the cache key covers everything that determines a cell's output —
  function identity, canonicalized kwargs, seed, and code-version salt.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.figures import _fig5_cell, _fig8_cell, fig4_value_size_concurrency
from repro.core.headline import headline_scalars
from repro.core.registry import EXPERIMENTS
from repro.errors import ConfigurationError, SimulationError
from repro.exec.cache import ResultCache, canonical, code_version_salt, point_key
from repro.exec.runner import ExecReport, SweepRunner, execute_spec, grid
from repro.exec.spec import SweepPoint, SweepSpec
from repro.faults.run import run_fault_sweep
from repro.kvbench.workload import Pattern
from repro.sim.engine import observe
from repro.trace.export import to_chrome_trace
from repro.trace.run import run_traced


# ---------------------------------------------------------------------------
# Module-level cells for engine-mechanics tests (picklable by reference).
# ---------------------------------------------------------------------------


def _double(x: int) -> Dict[str, int]:
    return {"x": x, "twice": 2 * x}


def _logged_cell(log_path: str, x: int) -> int:
    """Append one line per invocation so tests can count real computes."""
    with open(log_path, "a", encoding="ascii") as handle:
        handle.write(f"{x}\n")
    return x * 10


@dataclass(frozen=True)
class _ConfigA:
    knob: int = 3


@dataclass(frozen=True)
class _ConfigB:
    knob: int = 3


def _coordinates(a: int, b: str, scale: int = 1) -> Tuple[int, str]:
    return a * scale, b


def _spec(name: str, values: Sequence[int]) -> SweepSpec:
    return SweepSpec(name, tuple(
        SweepPoint(label=f"x{v}", fn=_double, kwargs=dict(x=v))
        for v in values
    ))


# ---------------------------------------------------------------------------
# Fingerprints: serialize a trace so float-exact comparison is literal.
# ---------------------------------------------------------------------------


def _trace_fingerprint(report: Any) -> str:
    document = to_chrome_trace(report.collector)
    runs = {
        name: {
            "completed": run.completed_ops,
            "latency": run.latency.summary().as_dict(),
            "stats": dataclasses.asdict(run.device_stats),
        }
        for name, run in report.runs.items()
    }
    return json.dumps(
        {"trace": document, "runs": runs, "dropped": report.collector.dropped},
        sort_keys=True, default=str,
    )


# ---------------------------------------------------------------------------
# Spec and point validation
# ---------------------------------------------------------------------------


class TestSpec:
    def test_point_computes_inline(self):
        point = SweepPoint(label="x4", fn=_double, kwargs=dict(x=4))
        assert point() == {"x": 4, "twice": 8}

    def test_point_rejects_lambda(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            SweepPoint(label="bad", fn=lambda: 1)

    def test_point_rejects_local_function(self):
        def local_cell() -> int:
            return 1

        with pytest.raises(ConfigurationError, match="module-level"):
            SweepPoint(label="bad", fn=local_cell)

    def test_point_rejects_noncallable(self):
        with pytest.raises(ConfigurationError, match="callable"):
            SweepPoint(label="bad", fn=42)  # type: ignore[arg-type]

    def test_spec_rejects_duplicate_labels(self):
        points = (
            SweepPoint(label="same", fn=_double, kwargs=dict(x=1)),
            SweepPoint(label="same", fn=_double, kwargs=dict(x=2)),
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepSpec("dupes", points)

    def test_spec_coerces_iterable_points(self):
        spec = SweepSpec("gen", (
            SweepPoint(label=f"x{v}", fn=_double, kwargs=dict(x=v))
            for v in (1, 2, 3)
        ))
        assert isinstance(spec.points, tuple)
        assert len(spec) == 3


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


class TestPointKey:
    def test_kwargs_order_is_irrelevant(self):
        a = SweepPoint(label="a", fn=_double, kwargs=dict(x=1, y=2))
        b = SweepPoint(label="b", fn=_double, kwargs=dict(y=2, x=1))
        assert point_key(a, "salt") == point_key(b, "salt")

    def test_label_is_not_part_of_the_key(self):
        a = SweepPoint(label="first", fn=_double, kwargs=dict(x=1))
        b = SweepPoint(label="second", fn=_double, kwargs=dict(x=1))
        assert point_key(a, "salt") == point_key(b, "salt")

    def test_kwargs_change_the_key(self):
        a = SweepPoint(label="a", fn=_double, kwargs=dict(x=1))
        b = SweepPoint(label="a", fn=_double, kwargs=dict(x=2))
        assert point_key(a, "salt") != point_key(b, "salt")

    def test_seed_changes_the_key(self):
        a = SweepPoint(label="a", fn=_double, kwargs=dict(x=1), seed=0)
        b = SweepPoint(label="a", fn=_double, kwargs=dict(x=1), seed=1)
        assert point_key(a, "salt") != point_key(b, "salt")

    def test_salt_changes_the_key(self):
        point = SweepPoint(label="a", fn=_double, kwargs=dict(x=1))
        assert point_key(point, "salt-1") != point_key(point, "salt-2")

    def test_function_identity_changes_the_key(self):
        a = SweepPoint(label="a", fn=_double, kwargs=dict(x=1))
        b = SweepPoint(label="a", fn=_logged_cell,
                       kwargs=dict(log_path="unused", x=1))
        assert point_key(a, "salt") != point_key(b, "salt")

    def test_float_notation_is_canonical(self):
        a = SweepPoint(label="a", fn=_double, kwargs=dict(x=1e-3))
        b = SweepPoint(label="a", fn=_double, kwargs=dict(x=0.001))
        assert point_key(a, "salt") == point_key(b, "salt")

    def test_equal_fields_different_dataclass_hash_apart(self):
        a = canonical(_ConfigA())
        b = canonical(_ConfigB())
        assert a["fields"] == b["fields"]
        assert a != b

    def test_canonical_handles_bytes_enums_containers(self):
        value = {
            "scheme": b"key-",
            "pattern": Pattern.UNIFORM,
            "sizes": (512, 4096),
            "nested": {"f": 0.25},
        }
        reordered = dict(reversed(list(value.items())))
        # Serializable, and independent of dict insertion order.
        assert (json.dumps(canonical(value), sort_keys=True)
                == json.dumps(canonical(reordered), sort_keys=True))
        # Tuples and lists hash apart (different results downstream).
        assert canonical((1, 2)) != canonical([1, 2])

    def test_canonical_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonical(object())

    def test_code_version_salt_is_memoized_hex(self):
        salt = code_version_salt()
        assert salt == code_version_salt()
        assert len(salt) == 64
        int(salt, 16)

    def test_code_version_salt_computed_once_per_process(self, monkeypatch):
        """The source-tree walk happens once; later calls hit the memo.

        Sweep workers call the salt once per cached point, so a
        recomputation would re-hash the whole package tree per point.
        """
        from repro.exec import cache as cache_mod

        salt = code_version_salt()  # ensure the memo is populated

        def recomputed(*_args, **_kwargs):
            raise AssertionError("code_version_salt re-walked the source tree")

        monkeypatch.setattr(cache_mod.hashlib, "sha256", recomputed)
        assert code_version_salt() == salt


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"answer": 42.5})
        hit, value = cache.get("ab" * 32)
        assert hit and value == {"answer": 42.5}
        assert cache.entry_count() == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.get("cd" * 32)
        assert not hit and value is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" * 32
        cache.put(key, [1, 2, 3])
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.write_bytes(b"definitely not a pickle")
        hit, value = cache.get(key)
        assert not hit and value is None
        assert not path.exists()

    @pytest.mark.parametrize("corrupt", [
        pytest.param(b"", id="empty"),
        pytest.param(b"garbage", id="garbage"),
        pytest.param(b"\x80\x05\x95\x15\x00\x00\x00\x00\x00\x00\x00}\x94(\x8c\x01x",
                     id="cut-frame"),
        # ValueError: unsupported pickle protocol: 127
        pytest.param(b"\x80\x7f", id="bad-protocol"),
        # ValueError: unregistered extension code 1
        pytest.param(b"\x82\x01.", id="bad-extension"),
        # TypeError: unhashable type: 'list'
        pytest.param(b"\x80\x04}(]K\x01u.", id="unhashable-key"),
        # KeyError: 1
        pytest.param(b"c_operator\ngetitem\n(}I1\ntR.", id="missing-key"),
    ])
    def test_corrupt_entry_is_recomputed_in_place_not_fatal_to_the_sweep(
        self, tmp_path, corrupt
    ):
        """Every error ``pickle`` can raise on bytes it did not write is a
        miss: ``b"\\x80\\x7f"`` used to escape ``get`` and kill the run."""
        cache = ResultCache(tmp_path)
        spec = _spec("corrupt", (3,))
        key = point_key(spec.points[0])
        path = tmp_path / key[:2] / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(corrupt)
        assert cache.get(key) == (False, None)
        assert cache.misses == 1 and not path.exists()
        path.write_bytes(corrupt)
        runner = SweepRunner(workers=1, cache=cache)
        assert runner.run(spec) == [{"x": 3, "twice": 6}]
        assert (runner.last_report.hits, runner.last_report.computed) == (0, 1)
        assert (cache.misses, cache.stores) == (2, 1)
        assert cache.get(key) == (True, {"x": 3, "twice": 6})

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(4):
            cache.put(f"{i:02d}" + "0" * 62, i)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert cache.entry_count() == 4


# ---------------------------------------------------------------------------
# Runner mechanics
# ---------------------------------------------------------------------------


class TestRunner:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError, match="workers"):
            SweepRunner(workers=0)

    def test_execute_spec_without_runner_is_inline(self):
        results = execute_spec(_spec("inline", (3, 1, 2)), None)
        assert results == [{"x": 3, "twice": 6}, {"x": 1, "twice": 2},
                           {"x": 2, "twice": 4}]

    def test_grid_is_the_cartesian_product_in_axis_order(self):
        class Capture(SweepRunner):
            def run(self, spec):
                self.spec = spec
                return super().run(spec)

        runner = Capture(cache=False)
        cells = grid(
            "g", _coordinates, {"a": (2, 1), "b": ("x", "y")},
            {"scale": 10}, runner, seed=7,
        )
        # First axis outermost; cells come back under their coordinates.
        assert list(cells) == [(2, "x"), (2, "y"), (1, "x"), (1, "y")]
        assert cells[1, "y"] == (10, "y")
        points = runner.spec.points
        assert runner.spec.name == "g"
        assert [p.label for p in points] == ["2/x", "2/y", "1/x", "1/y"]
        assert all(p.fn is _coordinates and p.seed == 7 for p in points)
        assert dict(points[0].kwargs) == {"a": 2, "b": "x", "scale": 10}

    def test_grid_with_one_axis_keys_by_bare_value(self):
        assert grid("g", _double, {"x": (3, 1)}) == {
            3: {"x": 3, "twice": 6}, 1: {"x": 1, "twice": 2},
        }

    def test_grid_rejects_a_repeated_coordinate(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            grid("g", _double, {"x": (1, 1)})

    def test_grid_labels_floats_compactly(self):
        class Capture(SweepRunner):
            def run(self, spec):
                self.labels = [p.label for p in spec.points]
                return [None] * len(spec.points)

        runner = Capture(cache=False)
        grid("g", _double, {"x": (0.0, 1e-3, 16.0)}, None, runner)
        assert runner.labels == ["0", "0.001", "16"]

    def test_serial_run_preserves_spec_order(self, tmp_path):
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        results = runner.run(_spec("ordered", (5, 4, 3)))
        assert [r["x"] for r in results] == [5, 4, 3]

    def test_parallel_run_preserves_spec_order(self, tmp_path):
        runner = SweepRunner(workers=4, cache=False)
        results = runner.run(_spec("ordered", (9, 8, 7, 6)))
        assert [r["x"] for r in results] == [9, 8, 7, 6]

    def test_cache_disabled_recomputes(self, tmp_path):
        log = tmp_path / "calls.log"
        spec = SweepSpec("logged", (
            SweepPoint(label="x1", fn=_logged_cell,
                       kwargs=dict(log_path=str(log), x=1)),
        ))
        runner = SweepRunner(workers=1, cache=False)
        runner.run(spec)
        runner.run(spec)
        assert log.read_text().count("\n") == 2
        assert runner.last_report.hits == 0

    def test_warm_cache_skips_computation(self, tmp_path):
        log = tmp_path / "calls.log"
        cache = ResultCache(tmp_path / "cache")
        spec = SweepSpec("logged", tuple(
            SweepPoint(label=f"x{v}", fn=_logged_cell,
                       kwargs=dict(log_path=str(log), x=v))
            for v in (1, 2, 3)
        ))
        cold = SweepRunner(workers=1, cache=cache).run(spec)
        warm_runner = SweepRunner(workers=1, cache=cache)
        warm = warm_runner.run(spec)
        assert warm == cold == [10, 20, 30]
        assert log.read_text().count("\n") == 3  # cold computes only
        report = warm_runner.last_report
        assert (report.hits, report.computed) == (3, 0)
        assert report.hit_rate == 1.0

    def test_report_format_mentions_the_sweep(self):
        report = ExecReport(spec_name="fig4", points=4, hits=3, computed=1,
                            workers=2, elapsed_s=0.5)
        text = report.format()
        assert "fig4" in text and "3 cached" in text and "workers=2" in text
        assert "75.0% hit rate" in text

    def test_empty_spec_hit_rate_is_zero(self):
        report = ExecReport(spec_name="empty", points=0, hits=0, computed=0,
                            workers=1, elapsed_s=0.0)
        assert report.hit_rate == 0.0


# ---------------------------------------------------------------------------
# Parallel/serial equivalence on the real experiments
# ---------------------------------------------------------------------------

_FAULT_KWARGS = dict(rates=(0.0, 2e-2), n_ops=100, blocks_per_plane=8)


class TestEquivalence:
    @pytest.mark.parametrize("row", ["fig3", "fig_cluster_rebalance", "fig_replay_mix", "faults"])
    def test_a_row_pops_and_renders_the_same_serial_and_pooled(self, row):
        """A pooled cell's events come home to the run that fanned it out."""
        serial = observe(EXPERIMENTS[row].fn)
        pooled = observe(partial(EXPERIMENTS[row].fn, runner=SweepRunner(workers=2, cache=False)))
        assert (pooled.events, pooled.value.render()) == (serial.events, serial.value.render())

    def test_a_forked_worker_counts_its_cell_not_its_parents_open_observation(self):
        """Each worker is forked while the parent's observation is open."""
        cell = dict(key_bytes=8, mode="sync", n_ops=20, blocks_per_plane=4)
        spec = SweepSpec("fork", tuple(
            SweepPoint(f"n{n}", _fig8_cell, {**cell, "n_ops": n}) for n in (30, 40)))

        def run(workers: int) -> Tuple[float, list]:
            return _fig8_cell(**cell), SweepRunner(workers=workers, cache=False).run(spec)

        serial, pooled = observe(partial(run, 1)), observe(partial(run, 2))
        assert (pooled.value, pooled.events) == (serial.value, serial.events)
        with pytest.raises(SimulationError, match="recorded observation cannot take pooled cells"):
            observe(partial(run, 2), record=True)

    @staticmethod
    def _serial_parallel_cached(fn, cache_dir, **kwargs):
        """``fn`` run serially, over two workers, cold into a cache and
        warm from it: four equal results, the last computing nothing."""
        runners = [SweepRunner(workers=2, cache=False), SweepRunner(cache_dir=cache_dir),
                   SweepRunner(cache_dir=cache_dir)]
        serial = fn(**kwargs)
        assert [fn(**kwargs, runner=runner) for runner in runners] == [serial] * 3
        assert runners[-1].last_report.computed == 0

    def test_fig4_parallel_matches_serial(self, tmp_path):
        self._serial_parallel_cached(fig4_value_size_concurrency, tmp_path,
                                     value_sizes=(4096, 16384), queue_depths=(1,),
                                     n_ops=100, blocks_per_plane=8)

    def test_headline_probe_serial_parallel_cached_identical(self, tmp_path):
        self._serial_parallel_cached(headline_scalars, tmp_path, n_ops=60, blocks_per_plane=8)

    def test_fault_sweep_parallel_matches_serial(self, tmp_path):
        self._serial_parallel_cached(run_fault_sweep, tmp_path, **_FAULT_KWARGS)

    def test_trace_parallel_matches_serial(self):
        serial = run_traced("fig5", n_ops=120)
        parallel = run_traced(
            "fig5", n_ops=120, runner=SweepRunner(workers=2, cache=False)
        )
        assert _trace_fingerprint(parallel) == _trace_fingerprint(serial)

    def test_frontend_sweep_serial_parallel_cached_identical(self, tmp_path):
        from repro.frontend.run import frontend_load_sweep

        self._serial_parallel_cached(frontend_load_sweep, tmp_path,
                                     loads_kops=(16.0, 256.0), n_ops=160)

    def test_replay_sweeps_serial_parallel_cached_identical(self, tmp_path):
        from repro.core.figures import replay_rotation, replay_ttl_scan_mix

        self._serial_parallel_cached(replay_rotation, tmp_path, rotate_every=(0, 64), n_ops=120,
                                     population=256, working_set=32, blocks_per_plane=8)
        self._serial_parallel_cached(replay_ttl_scan_mix, tmp_path, variants=("plain", "ttl+scan"),
                                     n_ops=120, population=240, ttl_ops=80, blocks_per_plane=8)

    def test_cache_hit_equals_cold_compute(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_fault_sweep(
            **_FAULT_KWARGS,
            runner=SweepRunner(workers=1, cache_dir=cache_dir),
        )
        warm_runner = SweepRunner(workers=1, cache_dir=cache_dir)
        warm = run_fault_sweep(**_FAULT_KWARGS, runner=warm_runner)
        assert warm.values == cold.values
        report = warm_runner.last_report
        assert report.hits == 4 and report.computed == 0

    @settings(max_examples=3, deadline=None)
    @given(
        n_ops=st.integers(min_value=20, max_value=60),
        key_bytes=st.sampled_from((8, 24)),
        blocks_per_plane=st.sampled_from((4, 8)),
    )
    def test_any_cell_inputs_are_worker_invariant(
        self, n_ops: int, key_bytes: int, blocks_per_plane: int
    ) -> None:
        """Property: cells are pure, so worker count never changes results."""
        points = tuple(
            SweepPoint(
                label=f"{mode}/k{key_bytes}",
                fn=_fig8_cell,
                kwargs=dict(key_bytes=key_bytes, mode=mode, n_ops=n_ops,
                            blocks_per_plane=blocks_per_plane),
            )
            for mode in ("sync", "async")
        )
        spec = SweepSpec("prop", points)
        serial = SweepRunner(workers=1, cache=False).run(spec)
        parallel = SweepRunner(workers=2, cache=False).run(spec)
        assert parallel == serial  # bandwidth floats, compared exactly

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="speedup is only observable with >=4 physical cores",
    )
    def test_parallel_speedup_on_four_cores(self):
        points = tuple(
            SweepPoint(
                label=f"kv/{i}",
                fn=_fig5_cell,
                kwargs=dict(device="kv", size=24 * 1024 + i, n_ops=400,
                            blocks_per_plane=8),
            )
            for i in range(8)
        )
        spec = SweepSpec("speedup", points)
        started = time.perf_counter()  # simlint: disable=SIM001
        serial = SweepRunner(workers=1, cache=False).run(spec)
        serial_s = time.perf_counter() - started  # simlint: disable=SIM001
        started = time.perf_counter()  # simlint: disable=SIM001
        parallel = SweepRunner(workers=4, cache=False).run(spec)
        parallel_s = time.perf_counter() - started  # simlint: disable=SIM001
        assert parallel == serial
        assert serial_s / parallel_s >= 2.0
