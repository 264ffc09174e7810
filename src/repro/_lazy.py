"""Lazy package re-exports (PEP 562): a package ``__init__`` names its
public objects without importing the modules that define them, so
``import repro.blockftl.config`` loads one module, not the block stack
and numpy behind ``repro.blockftl`` (the import rule, DESIGN.md §5)."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``package``'s ``__getattr__`` and ``__dir__``.  ``exports`` maps a
    submodule to the names it defines; a name is imported on first
    access and cached in the package's globals."""
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(f"{package}.{origin[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
