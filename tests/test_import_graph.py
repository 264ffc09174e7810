"""The import rule (DESIGN.md §5): a process loads only what its run uses.

Two layers of pinning, both sets and counts — never wall time:

* fresh subprocesses (a clean ``sys.modules``) import one entry point,
  or build and drive a KV rig, and report which modules got loaded: the
  block FTL, the host stores, the figure layer, the linter and numpy
  stay out of every KV-only process, and numpy can be absent altogether;
* statically and in-process, one import path per name: every package
  ``__init__`` is its docstring alone, so an object is imported from
  the module that defines it and from nowhere else.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
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
from repro.core.experiment import build_kv_rig
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


# (entry point, ceiling on loaded repro.* modules).  The ceilings sit
# two or three above what each entry point loads (9 / 47 / 51 / 62), so one
# new module fits and a package __init__ gone eager does not.
@pytest.mark.parametrize("entry, ceiling", [
    pytest.param("repro.kvbench.traces", 11, id="repro.kvbench.traces"),
    pytest.param("repro.core.experiment", 50, id="repro.core.experiment"),
    pytest.param("repro.frontend.frontend", 54, id="repro.frontend.frontend"),
    pytest.param("repro.cluster.run", 65, id="repro.cluster.run"),
])
def test_entry_point_loads_no_block_stack(entry: str, ceiling: int):
    modules = _loaded(f"import {entry}")
    assert _forbidden(modules) == []
    assert _repro_count(modules) <= ceiling


def test_a_kv_run_loads_no_block_stack():
    """Not just the import: building, priming and driving the KV rig
    imports nothing that drags the block stack in."""
    modules = _loaded(_KV_RUN)
    assert _forbidden(modules) == []
    assert [m for m in modules if m.startswith("repro.blockftl")] == []
    assert _repro_count(modules) <= 50  # 47 loaded


def test_cli_import_loads_no_numpy_hostkv_or_lint():
    modules = _loaded("import repro.cli")
    assert _forbidden(modules, ("numpy", "repro.hostkv", "repro.lint")) == []


def test_kv_stack_runs_without_numpy_and_block_rig_names_it():
    """numpy is a dependency of the block personality only: with the
    import blocked, the README quickstart and a KV closed loop complete,
    and ``build_block_rig`` fails naming the missing module."""
    code = "import sys\nsys.modules['numpy'] = None\n" + _KV_RUN + """
from repro.core.experiment import build_block_rig
try:
    build_block_rig()
except ModuleNotFoundError as exc:
    assert "numpy" in str(exc), exc
else:
    raise AssertionError("build_block_rig() ran without numpy")
"""
    _loaded(code)


# ---------------------------------------------------------------------------
# One import path per name
# ---------------------------------------------------------------------------


def _packages() -> list:
    """Every package under ``repro`` except the root."""
    root = SRC / "repro"
    return sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in root.rglob("__init__.py") if path.parent != root
    )


PACKAGES = _packages()


def _submodules(package: str, nested: bool = False) -> list:
    """``package``'s modules and subpackages, imported (``__main__``
    aside); with ``nested``, theirs too."""
    pkg = importlib.import_module(package)
    walk = pkgutil.walk_packages if nested else pkgutil.iter_modules
    return [
        importlib.import_module(info.name)
        for info in walk(pkg.__path__, prefix=f"{package}.")
        if not info.name.endswith(".__main__")
    ]


def test_every_package_is_covered():
    assert len(PACKAGES) >= 20  # nested ones included
    assert "repro.hostkv.lsm" in PACKAGES and "repro.core" in PACKAGES


def test_every_init_is_its_docstring_and_no_module_reexports():
    """Each ``__init__`` under ``src/repro`` is its docstring alone (the
    root adds ``__version__``), and no module defines ``__all__`` or a
    module-level ``__getattr__``: nothing names an object a second time."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = str(path.relative_to(SRC))
        if path.name == "__init__.py":
            body = tree.body[1:] if ast.get_docstring(tree) else tree.body
            if path.parent == SRC / "repro":
                body = [
                    node for node in body
                    if not ast.unparse(node).startswith("__version__ = ")
                ]
            offenders += [f"{where}:{node.lineno}" for node in body]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                offenders.append(f"{where}:{node.lineno} __getattr__")
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                else []
            )
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                offenders.append(f"{where}:{node.lineno} __all__")
    assert offenders == []


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve_to_the_defining_modules_objects(package: str):
    """No lazy export is left to resolve: with all its submodules
    imported, a package's public names are those submodules and nothing
    else, so ``from <package> import *`` binds modules only."""
    pkg = importlib.import_module(package)
    submodules = _submodules(package)
    public = {n: v for n, v in vars(pkg).items() if not n.startswith("_")}
    assert public == {m.__name__.rsplit(".", 1)[1]: m for m in submodules}
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(public)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_names_package_and_attribute(package: str):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError) as caught:
        pkg.no_such_name
    assert package in str(caught.value) and "no_such_name" in str(caught.value)


@pytest.mark.parametrize("package", PACKAGES)
def test_a_resolved_name_is_not_resolved_again(package: str):
    """A name resolves once, in the module that defines it: the package
    offers no second path to any class or function of its submodules."""
    pkg = importlib.import_module(package)
    defined = [
        name
        for module in _submodules(package, nested=True)
        for name, value in vars(module).items()
        if getattr(value, "__module__", None) == module.__name__
    ]
    assert defined
    assert [name for name in defined if hasattr(pkg, name)] == []
