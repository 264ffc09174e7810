"""simlint: one positive and one negative fixture per rule, CLI wiring.

Each rule gets a minimal snippet that must trigger it and a twin snippet
using the sanctioned idiom that must stay clean; a final test asserts
the shipped ``src/repro`` tree lints clean through the real CLI.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import (
    format_findings,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.lint.rules import RULES

REPO_ROOT = Path(__file__).resolve().parent.parent


def codes(source: str):
    return [f.code for f in lint_source(source)]


# -- SIM001: wall clock -------------------------------------------------------


def test_sim001_flags_wall_clock_reads():
    flagged = codes(
        "import time\n"
        "def measure():\n"
        "    return time.time()\n"
    )
    assert flagged == ["SIM001"]
    assert codes(
        "from time import perf_counter\n"
        "started = perf_counter()\n"
    ) == ["SIM001"]
    assert codes(
        "import datetime\n"
        "stamp = datetime.datetime.now()\n"
    ) == ["SIM001"]
    assert codes(
        "from datetime import datetime\n"
        "stamp = datetime.utcnow()\n"
    ) == ["SIM001"]


def test_sim001_allows_simulated_clock():
    assert codes(
        "def wait(env):\n"
        "    started = env.now\n"
        "    tracer.now()\n"  # Tracer.now reads the sim clock
        "    return env.now - started\n"
    ) == []
    # time.sleep is not a clock *read*; other linters police it.
    assert codes("import time\ntime.sleep(1)\n") == []


def test_sim001_flags_environment_reads():
    assert codes(
        "import os\n"
        "workers = int(os.environ.get('REPRO_PARALLEL', '1'))\n"
    ) == ["SIM001"]
    assert codes(
        "from os import environ, getenv\n"
        "def cell():\n"
        "    return environ['HOSTNAME'], getenv('HOME')\n"
    ) == ["SIM001", "SIM001"]
    assert codes("import os\nhome = os.getenv('HOME')\n") == ["SIM001"]


def test_sim001_allows_os_calls_that_read_no_environment():
    assert codes(
        "import os\n"
        "import os.path\n"
        "def cell(spec, environ):\n"
        "    root = os.path.join(spec.root, os.sep)\n"
        "    return environ['x'], spec.environ, os.cpu_count()\n"
    ) == []


# -- SIM002: unseeded randomness ---------------------------------------------


def test_sim002_flags_global_and_unseeded_rng():
    assert codes(
        "import random\n"
        "value = random.random()\n"
    ) == ["SIM002"]
    assert codes(
        "from random import randint\n"
        "value = randint(1, 6)\n"
    ) == ["SIM002"]
    assert codes(
        "import random\n"
        "rng = random.Random()\n"
    ) == ["SIM002"]
    assert codes(
        "import random\n"
        "rng = random.SystemRandom(4)\n"
    ) == ["SIM002"]


def test_sim002_allows_seeded_instances():
    assert codes(
        "import random\n"
        "rng = random.Random(1234)\n"
        "value = rng.random()\n"
    ) == []
    assert codes(
        "from random import Random\n"
        "rng = Random(seed)\n"
    ) == []


@pytest.mark.parametrize("source", [
    "import os\nnonce = os.urandom(8)\n",
    "from os import urandom\nnonce = urandom(8)\n",
    "import uuid\nrun_id = uuid.uuid1()\n",
    "from uuid import uuid4 as new_id\nrun_id = new_id()\n",
    "import secrets\ntoken = secrets.token_hex(4)\n",
    "from secrets import randbelow\ndraw = randbelow(6)\n",
    "from random import SystemRandom\nrng = SystemRandom()\n",
])
def test_sim002_flags_os_entropy(source):
    assert codes(source) == ["SIM002"]


@pytest.mark.parametrize("source", [
    # Namespaced ids are pure functions of their arguments.
    "import uuid\nrun_id = uuid.uuid5(uuid.NAMESPACE_DNS, 'cell-3')\n",
    "import uuid\nparsed = uuid.UUID('12345678123456781234567812345678')\n",
    # A local that merely shares a name with a banned member.
    "def cell(urandom, secrets):\n    return urandom(8), secrets.token_hex(4)\n",
    "import os\nsize = os.stat('x').st_size\n",
    "import random\nrng = random.Random(7)\nnonce = rng.randbytes(8)\n",
])
def test_sim002_allows_seeded_and_derived_values(source):
    assert codes(source) == []


# -- SIM003: dropped generator ------------------------------------------------


def test_sim003_flags_unstarted_generator_statement():
    assert codes(
        "def worker(env):\n"
        "    yield env.timeout(1)\n"
        "def main(env):\n"
        "    worker(env)\n"
    ) == ["SIM003"]
    assert codes(
        "class Device:\n"
        "    def drain(self):\n"
        "        yield self.env.timeout(1)\n"
        "    def close(self):\n"
        "        self.drain()\n"
    ) == ["SIM003"]


def test_sim003_allows_started_or_delegated_generators():
    assert codes(
        "def worker(env):\n"
        "    yield env.timeout(1)\n"
        "def main(env):\n"
        "    env.process(worker(env))\n"
        "    proc = worker(env)\n"
        "def outer(env):\n"
        "    yield from worker(env)\n"
    ) == []
    # A same-named method on *another* object is not provably ours.
    assert codes(
        "class Device:\n"
        "    def drain(self):\n"
        "        yield self.env.timeout(1)\n"
        "    def flush(self):\n"
        "        self.buffer.drain()\n"
    ) == []


def test_sim003_flags_dropped_serve_result():
    """serve() is a plain call: it has taken the slot and armed the
    release by the time it returns, so its result must be yielded."""
    assert codes(
        "def program(env, die):\n"
        "    die.serve(5.0)\n"
        "    yield env.timeout(1)\n"
    ) == ["SIM003"]
    assert codes(
        "class Array:\n"
        "    def program(self, block):\n"
        "        token = self._die_res[block].serve(self.timing.program_us)\n"
        "        yield self.env.timeout(1)\n"
    ) == ["SIM003"]


def test_sim003_serve_check_is_per_function():
    """A nested function is judged on its own: flagged once, and not
    excused by the enclosing function yielding a name spelled the same."""
    assert codes(
        "def outer(env, die):\n"
        "    def inner():\n"
        "        token = die.serve(1.0)\n"
        "        yield env.timeout(1)\n"
        "    token = die.serve(2.0)\n"
        "    yield token\n"
    ) == ["SIM003"]


def test_sim003_flags_iterated_serve_result():
    assert codes(
        "def program(env, die):\n"
        "    yield from die.serve(5.0)\n"
    ) == ["SIM003"]
    assert codes(
        "class Device:\n"
        "    def store(self):\n"
        "        yield from self.controller.serve(self.config.store_us)\n"
    ) == ["SIM003"]


def test_sim003_allows_yielded_serve_and_own_serve_generators():
    assert codes(
        "def program(env, die, pool):\n"
        "    yield die.serve(5.0)\n"
        "    token = die.serve(1.0)\n"
        "    yield token\n"
        "def wrapper(pool, d):\n"
        "    return pool.resource.serve(d)\n"
    ) == []
    # A class whose own serve() is a generator delegates to it freely.
    assert codes(
        "class Frontend:\n"
        "    def serve(self, schedule):\n"
        "        yield self.env.timeout(1)\n"
        "    def run(self, schedule):\n"
        "        yield from self.serve(schedule)\n"
    ) == []


@pytest.mark.parametrize("wait", ["env.sleep(5.0)", "self._space.park()"])
def test_sim003_flags_unyielded_sleep_and_park(wait):
    """The other two parking waits break the same three ways as serve,
    plus a fourth: a condition has no event to wait on."""
    assert codes(f"def worker(self, env):\n    {wait}\n    yield env.timeout(1)\n") \
        == ["SIM003"]
    assert codes(f"def worker(self, env):\n    yield from {wait}\n") == ["SIM003"]
    assert codes(
        f"def worker(self, env):\n    token = {wait}\n    yield env.timeout(1)\n"
    ) == ["SIM003"]
    assert codes(
        f"def worker(self, env):\n    yield env.any_of([{wait}, env.timeout(2)])\n"
    ) == ["SIM003"]
    assert codes(f"def worker(self, env):\n    yield env.all_of(({wait},))\n") \
        == ["SIM003"]


def test_sim003_allows_yielded_sleep_park_and_time_sleep():
    assert codes(
        "import time\n"
        "from time import sleep\n"
        "def worker(self, env):\n"
        "    yield env.sleep(5.0)\n"
        "    yield self._space.park()\n"
        "    token = env.sleep(1.0)\n"
        "    yield token\n"
        "    yield env.any_of([self._space.wait(), env.timeout(2)])\n"
        "    time.sleep(1)\n"
        "    sleep(1)\n"
    ) == []
    assert codes("import time as clock\nclock.sleep(0.1)\n") == []


# -- SIM004: timestamp equality ----------------------------------------------


def test_sim004_flags_timestamp_equality():
    assert codes("ready = env.now == deadline_us\n") == ["SIM004"]
    assert codes("if started_us != finished_us:\n    pass\n") == ["SIM004"]


def test_sim004_allows_ordering_and_tolerance():
    assert codes("done = env.now >= deadline_us\n") == []
    assert codes(
        "from repro.units import times_equal\n"
        "same = times_equal(started_us, finished_us)\n"
    ) == []
    # String constants that merely *name* a timestamp field are fine.
    assert codes("ok = field_name != 'command_overhead_us'\n") == []


# -- SIM005: mutable defaults -------------------------------------------------


def test_sim005_flags_mutable_and_call_defaults():
    assert codes("def add(item, bucket=[]):\n    bucket.append(item)\n") \
        == ["SIM005"]
    assert codes(
        "def build(costs=DriverCosts()):\n    return costs\n"
    ) == ["SIM005"]
    assert codes(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Spec:\n"
        "    scheme: KeyScheme = KeyScheme()\n"
    ) == ["SIM005"]


def test_sim005_allows_none_factory_and_immutable_defaults():
    assert codes(
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Spec:\n"
        "    items: list = field(default_factory=list)\n"
        "    limit: float = float('inf')\n"
        "    MIXES = {'A': 1}\n"  # unannotated: class constant, not a field
        "def build(costs=None, cap=float('inf')):\n"
        "    return costs\n"
    ) == []


# -- SIM011: frozen fields the cache key cannot see -------------------------


def test_sim011_flags_init_false_without_compare_false():
    found = lint_source(
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class CellSpec:\n"
        "    n_ops: int\n"
        "    mode: str = field(init=False, default='fast')\n"
    )
    assert [f.code for f in found] == ["SIM011"]
    assert "CellSpec.mode" in found[0].message


def test_sim011_clean_for_derived_and_tuple_fields():
    assert codes(
        "from dataclasses import dataclass, field\n"
        "from typing import Tuple\n"
        "@dataclass(frozen=True)\n"
        "class GeomSpec:\n"
        "    planes: int\n"
        "    shards: Tuple[str, ...] = ()\n"
        "    pages_total: int = field(\n"
        "        init=False, repr=False, compare=False, default=0)\n"
        "@dataclass\n"
        "class Scratch:  # not frozen: never a cache key\n"
        "    seen: int = field(init=False, default=0)\n"
    ) == []


# -- SIM007: hot-path allocation ---------------------------------------------


def test_sim007_flags_hot_path_allocation_patterns():
    hot = "src/repro/sim/queue.py"
    packed = (
        "from heapq import heappush\n"
        "def schedule(queue, t, seq, event):\n"
        "    heappush(queue, (t, seq, event))\n"
    )
    assert [f.code for f in lint_source(packed, hot)] == ["SIM007"]
    closure = (
        "def kick(env, op):\n"
        "    env.schedule(lambda: op.run(), 5.0)\n"
    )
    assert [f.code for f in lint_source(closure, hot)] == ["SIM007"]
    callback = (
        "def wire(event, op):\n"
        "    event.callbacks.append(lambda ev: op.finish(ev))\n"
    )
    assert [f.code for f in lint_source(callback, hot)] == ["SIM007"]


def test_sim007_scoped_to_sim_and_flash_paths():
    packed = (
        "from heapq import heappush\n"
        "def schedule(queue, t, seq, event):\n"
        "    heappush(queue, (t, seq, event))\n"
    )
    # Outside the hot-path directories the pattern is fine (e.g. a
    # priority queue in experiment orchestration code).
    assert lint_source(packed, "src/repro/exec/engine.py") == []
    assert lint_source(packed, "tools/replay.py") == []
    assert [f.code for f in lint_source(packed, "src/repro/flash/nand.py")] \
        == ["SIM007"]


def test_sim007_allows_allocation_free_hot_code():
    clean = (
        "from heapq import heappush\n"
        "def schedule(queue, entry, event, resume):\n"
        "    heappush(queue, entry)\n"  # reused entry, no packing
        "    event.callbacks.append(resume)\n"  # bound method, no lambda
    )
    assert lint_source(clean, "src/repro/sim/queue.py") == []


# -- suppressions -------------------------------------------------------------


def test_line_suppression_silences_only_that_code_and_line():
    clean = (
        "import time\n"
        "started = time.time()  # simlint: disable=SIM001\n"
    )
    assert codes(clean) == []
    other_code = (
        "import time\n"
        "started = time.time()  # simlint: disable=SIM002\n"
    )
    assert codes(other_code) == ["SIM001"]
    other_line = (
        "import time\n"
        "# simlint: disable=SIM001\n"
        "started = time.time()\n"
    )
    assert codes(other_line) == ["SIM001"]


def test_file_suppression_and_multi_code_parse():
    source = (
        "# simlint: disable-file=SIM001\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.perf_counter()\n"
    )
    assert codes(source) == []
    file_codes, line_codes = parse_suppressions(
        "x = 1  # simlint: disable=SIM001,SIM005\n"
    )
    assert file_codes == set()
    assert line_codes == {1: {"SIM001", "SIM005"}}
    # A bare disable with no codes suppresses nothing.
    assert codes(
        "import time\nstarted = time.time()  # simlint: disable\n"
    ) == ["SIM001"]


# -- engine / CLI -------------------------------------------------------------


def test_syntax_error_reports_sim000():
    assert codes("def broken(:\n") == ["SIM000"]


def test_rule_catalog_covers_all_emitted_codes():
    assert set(RULES) == {
        "SIM000", "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM007",
        "SIM011",
    }


def test_format_findings_renders_path_line_and_summary(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstarted = time.time()\n")
    findings = lint_paths([tmp_path])
    report = format_findings(findings)
    assert f"{bad}:2:11: SIM001" in report
    assert "simlint: 1 finding" in report
    # The summary line carries per-rule hit counts.
    assert "[SIM001×1]" in report
    assert format_findings([]) == "simlint: clean"


def test_shipped_tree_lints_clean_via_cli():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "simlint: clean" in result.stdout


def test_cli_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import random\n"
        "def jitter(values=[]):\n"
        "    return random.random()\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1
    assert "SIM002" in result.stdout
    assert "SIM005" in result.stdout


def test_list_rules_flag():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    for code in RULES:
        assert code in result.stdout


def test_sarif_output_is_valid_and_locates_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstarted = time.time()\n")
    sarif_path = tmp_path / "findings.sarif"
    result = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad),
         "--sarif", str(sarif_path)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 1  # findings still set the exit code
    document = json.loads(sarif_path.read_text())
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "simlint"
    (finding,) = run["results"]
    assert finding["ruleId"] == "SIM001"
    region = finding["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    rules = run["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == ["SIM001"]


def test_pycache_artifacts_are_invisible_to_walker_and_salt(tmp_path):
    """Hygiene: a stray .py under __pycache__ is neither linted nor salted."""
    from repro.lint.sources import is_python_source, walk_python_sources

    good = tmp_path / "mod.py"
    good.write_text("VALUE = 1\n")
    cache_dir = tmp_path / "__pycache__"
    cache_dir.mkdir()
    stray = cache_dir / "stray.py"
    stray.write_text("import time\nx = time.time()\n")
    hidden = tmp_path / ".build" / "gen.py"
    hidden.parent.mkdir()
    hidden.write_text("VALUE = 2\n")
    assert walk_python_sources(tmp_path) == [good]
    assert not is_python_source(stray)
    assert is_python_source(good)
    assert lint_paths([tmp_path]) == []


def test_mypy_strict_on_substrate_if_available():
    """Typecheck gate: strict on sim/flash/ftl/faults per pyproject.toml.

    mypy is an optional tool, not a runtime dependency — when it is not
    installed (the lab image ships without it) this skips and the CI
    typecheck job is authoritative.
    """
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def _strict_modules() -> list:
    """The ``strict = true`` override's module list, read from
    pyproject.toml by regex (CI also runs 3.10, which has no tomllib)."""
    import re

    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    blocks = re.findall(
        r"\[\[tool\.mypy\.overrides\]\](.*?)(?=\n\[|\Z)", text, re.S
    )
    strict = [b for b in blocks if re.search(r"^strict\s*=\s*true", b, re.M)]
    assert len(strict) == 1, "expected exactly one strict override block"
    listing = re.search(r"^module\s*=\s*\[(.*?)\]", strict[0], re.S | re.M)
    assert listing is not None
    return re.findall(r'"([^"]+)"', listing.group(1))


def test_strict_modules_are_fully_annotated():
    """A stdlib stand-in for the part of ``mypy --strict`` that needs no
    type inference: in every module pyproject.toml holds to strict, each
    ``def`` annotates all its parameters and its return.  mypy itself is
    not installed in the lab image (the test above skips there), and two
    PRs shipped rewritten strict packages unchecked; this one fails."""
    import ast

    modules = _strict_modules()
    assert "repro.cluster.*" in modules and "repro.frontend.*" in modules
    missing = []
    for pattern in modules:
        package = REPO_ROOT / "src" / Path(*pattern.removesuffix(".*").split("."))
        # ``pkg.*`` names a package tree, a bare name one module.
        paths = (sorted(package.rglob("*.py")) if pattern.endswith(".*")
                 else [package.with_suffix(".py")])
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a]
                bare = [
                    a.arg for a in params
                    if a.annotation is None and a.arg not in ("self", "cls")
                ]
                # mypy accepts an unannotated return on __init__ only
                # when some parameter is annotated.
                needs_return = node.returns is None and not (
                    node.name == "__init__" and len(bare) < len(params) - 1
                )
                if bare or needs_return:
                    where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                    missing.append(f"{where} {node.name}({', '.join(bare)})")
    assert not missing, "unannotated defs in strict modules:\n" + "\n".join(missing)
