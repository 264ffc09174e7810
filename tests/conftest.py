"""Shared pytest configuration: the ledger and the figure runs.

Every pinned value lives in ``BENCH_ledger.json``, read through ``pin``
(:class:`Ledger`).  The claims, golden and smoke suites read each row of
:data:`repro.core.registry.EXPERIMENTS` at its recorded scale through the
:func:`figure_run` memo, once per session.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from collections import Counter
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

import pytest

import repro
from repro.core.registry import EXPERIMENTS
from repro.exec.runner import SweepRunner
from repro.sim.engine import Observation, observe


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite BENCH_ledger.json and EXPERIMENTS.md from live runs "
        "instead of diffing against them",
    )


LEDGER = Path(__file__).resolve().parent.parent / "BENCH_ledger.json"
PYTHON = "%d.%d" % sys.version_info[:2]


def cli_env() -> Dict[str, str]:
    """The stripped environment a CLI child runs in: the source tree on
    its path, the system ``PATH``, and this interpreter's bytecode
    setting, so a suite run under ``PYTHONDONTWRITEBYTECODE`` (or ``-B``)
    leaves no ``.pyc`` files in the checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _leaves(value: Any, path: str = "") -> Dict[str, Any]:
    """``value`` flattened to ``{dotted path: leaf}``."""
    if not isinstance(value, dict):
        return {path: value}
    return {k: v for name, child in value.items()
            for k, v in _leaves(child, f"{path}.{name}" if path else name).items()}


class Ledger:
    """``identity`` is exact on every Python minor; ``work`` (call counts)
    is exact on the minor in ``work.python`` and ceilings on others.
    ``--regen-golden`` stores each live value instead (``work`` only on
    its own minor), skips the test and writes the file once at the end;
    keys not visited keep their values, except that ``keep`` names every
    child each of its dotted keys may hold and the rest are dropped."""

    def __init__(self, path: Path, regen: bool,
                 keep: Optional[Dict[str, Iterable[str]]] = None) -> None:
        self.path, self.regen, self.stored = path, regen, []
        self.keep = {parent: sorted(names) for parent, names in (keep or {}).items()}
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def pin(self, key: str, live: Any) -> None:
        """Store ``live`` at the dotted ``key`` when regenerating; else fail
        listing every leaf that drifted."""
        live = json.loads(json.dumps(live))
        ceiling = (key.startswith("work.")
                   and self.data.setdefault("work", {}).setdefault("python", PYTHON) != PYTHON)
        if self.regen and not ceiling:
            *parents, leaf = key.split(".")
            self._node(parents)[leaf] = live
            return self.stored.append(key)
        pinned = {k: v for k, v in _leaves(self.data).items()
                  if k == key or k.startswith(key + ".")}
        now = _leaves(live, key)
        drifted = [
            f"  {name}: ledger {pinned.get(name, '<absent>')!r} -> live "
            f"{now.get(name, '<absent>')!r}" for name in sorted(pinned.keys() | now.keys())
            if name not in pinned or name not in now
            or not (now[name] <= pinned[name] if ceiling else now[name] == pinned[name])
        ]
        if drifted:
            pytest.fail(f"{key} drifted from {self.path.name}"
                        f"{' (ceilings on ' + PYTHON + ')' if ceiling else ''}; rerun "
                        "with --regen-golden if intentional:\n" + "\n".join(drifted),
                        pytrace=False)

    def _node(self, names: Iterable[str]) -> Dict[str, Any]:
        node = self.data
        for name in names:
            node = node.setdefault(name, {})
        return node

    def save(self) -> None:
        if not self.regen:
            return
        dropped = []
        for parent, names in self.keep.items():
            node = self._node(parent.split("."))
            dropped += [node.pop(name) for name in node.keys() - set(names)]
        if self.stored or dropped:
            self.path.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n",
                                 encoding="ascii")


@pytest.fixture(scope="session")
def ledger(request: pytest.FixtureRequest) -> Iterator[Ledger]:
    from tests.test_sanitizer import CI_TARGETS

    book = Ledger(LEDGER, bool(request.config.getoption("--regen-golden")), keep={
        "identity.rows": EXPERIMENTS,
        "identity.sanitizer": [target for target, _ in CI_TARGETS],
        "identity.examples": [path.stem for path in LEDGER.parent.glob("examples/*.py")],
    })
    yield book
    book.save()


@pytest.fixture
def pin(ledger: Ledger) -> Callable[[str, Any], None]:
    return ledger.pin


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item: pytest.Function) -> Iterator[None]:
    """Skip a test that stored ledger values once all of its pins ran."""
    book = getattr(item, "funcargs", {}).get("ledger")
    before = len(book.stored) if book else 0
    result = yield
    if book and len(book.stored) > before:
        pytest.skip(f"regenerated {', '.join(book.stored[before:])} in {book.path.name}")
    return result


@lru_cache(maxsize=None)
def figure_run(name: str) -> Observation:
    """The memoized recorded-scale run of one experiment, its cells fanned
    over a pool: its result and the engine events it popped, in every
    process."""
    runner = SweepRunner(workers=os.cpu_count() or 1, cache=False)
    return observe(partial(EXPERIMENTS[name].fn, runner=runner))


def call_ledger(run: Callable[[], Any]) -> Tuple[Any, Dict[str, int]]:
    """``run()``'s result and the Python calls it made into ``repro/``, per
    top-level package (a module directly under ``repro/`` counts under its
    own name).  Counted with ``sys.setprofile``, so the numbers are the
    same on every machine; C builtins are not calls.  Garbage of earlier
    tests is collected first: a suspended generator finalised inside the
    window would run its ``finally`` on this ledger."""
    root = os.path.dirname(repro.__file__) + os.sep
    package_of: Dict[str, str] = {}
    calls: Counter = Counter()

    def profile(frame: Any, event: str, arg: Any) -> None:
        if event != "call":
            return
        filename = frame.f_code.co_filename
        package = package_of.get(filename)
        if package is None:
            inside = filename.startswith(root)
            head = filename[len(root):].split(os.sep)[0] if inside else ""
            package = package_of[filename] = head.removesuffix(".py")
        if package:
            calls[package] += 1

    gc.collect()
    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, dict(calls)


def figure_result(name: str) -> Any:
    """The result of :func:`figure_run`."""
    return figure_run(name).value
