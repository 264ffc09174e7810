"""The import rule (DESIGN.md §5): a process loads only what its run uses.

Two layers of pinning, both sets and counts — never wall time:

* fresh subprocesses (a clean ``sys.modules``) import one entry point,
  or build and drive a KV rig, and report which modules got loaded: the
  block FTL, the host stores, the figure layer, the linter and numpy
  stay out of every KV-only process, and numpy can be absent altogether;
* in-process, every package's lazy re-exports (``repro/_lazy.py``)
  resolve to the objects their defining modules hold, once.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Loaded-module prefixes no KV-only process may hold.
FORBIDDEN = (
    "numpy",
    "repro.blockftl.device",
    "repro.blockftl.mapping",
    "repro.hostkv",
    "repro.core.figures",
    "repro.core.headline",
    "repro.lint",
)

_REPORT = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""

#: The README quickstart plus a primed 50-op closed loop on the KV rig.
_KV_RUN = """
from repro.core import build_kv_rig
from repro.kvbench.runner import execute_workload
from repro.kvbench.workload import WorkloadSpec, generate_operations
from repro.kvftl.population import KeyScheme

rig = build_kv_rig()

def session(env):
    yield env.process(rig.api.store(b"hello-key-000001", 4096))
    value = yield env.process(rig.api.retrieve(b"hello-key-000001"))
    assert value == 4096

rig.env.run_until_complete(rig.env.process(session(rig.env)))
scheme = KeyScheme(prefix=b"grph", digits=12)
rig.prime(64, 1024, scheme)
spec = WorkloadSpec(n_ops=50, op="mixed", population=64, key_scheme=scheme,
                    value_bytes=1024, seed=1)
run = execute_workload(rig.env, rig.adapter, generate_operations(spec),
                       queue_depth=4)
assert run.completed_ops == 50 and run.failed_ops == 0
"""


def _loaded(code: str) -> list:
    """Run ``code`` in a fresh interpreter; the modules it left loaded."""
    result = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _forbidden(modules: list, prefixes: tuple = FORBIDDEN) -> list:
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def _repro_count(modules: list) -> int:
    return sum(1 for m in modules if m == "repro" or m.startswith("repro."))


# (entry point, ceiling on loaded repro.* modules).  The tree this rule
# landed on loaded 66 / 76 / 74 / 82; the ceilings sit three above what
# the rule left (11 / 49 / 53 / 65), so one new module fits and a
# package __init__ gone eager again does not.
@pytest.mark.parametrize("entry, ceiling", [
    ("repro.kvbench.traces", 12),
    ("repro.core.experiment", 52),
    ("repro.frontend.frontend", 56),
    ("repro.cluster.run", 68),
])
def test_entry_point_loads_no_block_stack(entry: str, ceiling: int):
    modules = _loaded(f"import {entry}")
    assert _forbidden(modules) == []
    assert _repro_count(modules) <= ceiling


def test_a_kv_run_loads_no_block_stack():
    """Not just the import: building, priming and driving the KV rig
    resolves nothing lazily that drags the block stack in."""
    modules = _loaded(_KV_RUN)
    assert _forbidden(modules) == []
    assert [m for m in modules if m.startswith("repro.blockftl")] == []
    assert _repro_count(modules) <= 52


def test_cli_import_loads_no_numpy_hostkv_or_lint():
    modules = _loaded("import repro.cli")
    assert _forbidden(modules, ("numpy", "repro.hostkv", "repro.lint")) == []


def test_kv_stack_runs_without_numpy_and_block_rig_names_it():
    """numpy is a dependency of the block personality only: with the
    import blocked, the README quickstart and a KV closed loop complete,
    and ``build_block_rig`` fails naming the missing module."""
    code = "import sys\nsys.modules['numpy'] = None\n" + _KV_RUN + """
from repro.core import build_block_rig
try:
    build_block_rig()
except ModuleNotFoundError as exc:
    assert "numpy" in str(exc), exc
else:
    raise AssertionError("build_block_rig() ran without numpy")
"""
    _loaded(code)


# ---------------------------------------------------------------------------
# Lazy re-exports
# ---------------------------------------------------------------------------


def _packages() -> list:
    """Every package under ``repro`` (the root re-exports nothing lazily)."""
    root = SRC / "repro"
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in root.rglob("__init__.py") if path.parent != root
    )


def _export_table(package: str) -> dict:
    """name -> defining submodule, read from the ``lazy_exports`` call."""
    path = SRC.joinpath(*package.split(".")) / "__init__.py"
    calls = [
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "lazy_exports"
    ]
    assert len(calls) == 1, f"{package}: expected one lazy_exports call"
    table = ast.literal_eval(calls[0].args[1])
    return {name: module for module, names in table.items() for name in names}


PACKAGES = _packages()


def test_every_package_is_covered():
    assert len(PACKAGES) >= 20  # nested ones included
    assert "repro.hostkv.lsm" in PACKAGES and "repro.core" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_to_the_defining_modules_objects(package: str):
    pkg = importlib.import_module(package)
    table = _export_table(package)
    assert sorted(table) == sorted(pkg.__all__)
    assert len(set(pkg.__all__)) == len(pkg.__all__)
    for name, module in table.items():
        defining = importlib.import_module(f"{package}.{module}")
        assert getattr(pkg, name) is getattr(defining, name), name
    assert set(dir(pkg)) >= set(pkg.__all__)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pkg.__all__)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_names_package_and_attribute(package: str):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError) as caught:
        pkg.no_such_name
    assert package in str(caught.value) and "no_such_name" in str(caught.value)


@pytest.mark.parametrize("package", PACKAGES)
def test_a_resolved_name_is_not_resolved_again(package: str):
    pkg = importlib.import_module(package)
    name = pkg.__all__[0]
    vars(pkg).pop(name, None)
    resolve, calls = pkg.__getattr__, []

    def counting(attribute: str):
        calls.append(attribute)
        return resolve(attribute)

    pkg.__getattr__ = counting
    try:
        assert getattr(pkg, name) is getattr(pkg, name)
    finally:
        pkg.__getattr__ = resolve
    assert calls == [name]
    assert vars(pkg)[name] is getattr(pkg, name)


def test_one_lazy_helper_and_no_hand_rolled_variant():
    """``def __getattr__`` appears once under ``src/repro``: the helper."""
    holders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if "def __getattr__" in path.read_text(encoding="utf-8")
    ]
    assert holders == ["repro/_lazy.py"]
