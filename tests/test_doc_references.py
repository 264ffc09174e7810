"""Every backticked code reference in the docs and the docstrings under
``src/`` resolves: ``path.py:Name`` to a name its module defines, and
``repro.x.y`` to a module or a name one defines."""

from __future__ import annotations

import ast
import pkgutil
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", *(
    str(skill.relative_to(ROOT)) for skill in ROOT.glob(".*/skills/*/SKILL.md")))
REFERENCE = re.compile(r"`~?(?:((?:\w+/)*\w+)\.py:([A-Za-z_][\w.]*)|(repro(?:\.\w+)+))(?![\w*(])")


def dead_references(text: str) -> list:
    dead = []
    for match in REFERENCE.finditer(text):
        path, name, dotted = match.groups()
        if path in ("path", "path/to/file"):  # the docs' placeholders
            continue
        if path is not None:
            in_src = (ROOT / "src" / "repro" / f"{path}.py").exists()
            dotted = f"{'repro.' * in_src}{path.replace('/', '.')}:{name}"
        try:
            pkgutil.resolve_name(dotted)
        except (ImportError, AttributeError):
            dead.append(match.group(0))
    return dead


def test_every_doc_and_docstring_reference_resolves():
    texts = {doc: (ROOT / doc).read_text() for doc in DOCS}
    for source in sorted((ROOT / "src").rglob("*.py")):
        nodes = ast.walk(ast.parse(source.read_text()))
        texts[str(source)] = "\n".join(
            ast.get_docstring(node, clean=False) or "" for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)))
    assert {where: dead for where, text in texts.items() if (dead := dead_references(text))} == {}


def test_a_dead_reference_is_found():
    assert dead_references("`sim/engine.py:observe` `sim/engine.py:gone` `repro.sim.engine.gone`"
                           " `repro.sim.gone` `tests/conftest.py:figure_run`") == [
        "`sim/engine.py:gone", "`repro.sim.engine.gone", "`repro.sim.gone"]
