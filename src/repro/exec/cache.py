"""On-disk result cache for sweep points.

A point's cache key is a SHA-256 over its *complete inputs*: the cell
function's identity, a canonical serialization of its keyword arguments
(dataclass configs included), the point seed, and a **code-version
salt** — a hash of every ``repro`` source file.  Any edit anywhere in
the simulator invalidates the whole cache, which is deliberately
conservative: a stale hit would silently reproduce the *old* model's
numbers, the one failure mode a reproduction repo cannot afford.

Values are stored as pickles under ``.repro-cache/<k[:2]>/<k>.pkl``.
Writes are atomic (temp file + rename) so a crashed run never leaves a
truncated entry; unreadable entries are treated as misses and removed.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from repro.exec.spec import SweepPoint

#: Default cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Bump to invalidate every existing cache entry (format changes).
_CACHE_FORMAT = 1

_salt_memo: Optional[str] = None


def code_version_salt() -> str:
    """Hash of every ``repro`` source file (path + contents), memoized.

    Computed over the installed package tree so edits to any layer of
    the simulator — not just the experiment code — invalidate cached
    results.  File discovery goes through the canonical walker in
    :mod:`repro.lint.sources`, the same one the lint pass uses, so a
    stray ``.py`` under ``__pycache__`` (or any other artifact
    directory) can neither perturb the salt nor escape analysis.
    """
    global _salt_memo
    if _salt_memo is None:
        import repro
        from repro.lint.sources import walk_python_sources

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in walk_python_sources(package_root):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _salt_memo = digest.hexdigest()
    return _salt_memo


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Handles the argument types sweep cells use: primitives, bytes,
    enums, dataclass instances (tagged with their class so two configs
    with equal fields but different types hash apart), and containers
    of those.  Raises ``TypeError`` for anything else rather than
    guessing — an unhashable argument means the point is not cacheable
    as written.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips doubles exactly; "1e-3" and "0.001" agree.
        return {"__float__": repr(value)}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__module__}.{type(value).__qualname__}",
                "name": value.name}
    if is_dataclass(value) and not isinstance(value, type):
        # Only constructor inputs participate in the key: init=False
        # fields are derived (precomputed geometry quantities, timing memo
        # tables) and would either duplicate the inputs or — for memo
        # state — make the key depend on what happened to run first.
        return {
            "__dataclass__": f"{type(value).__module__}.{type(value).__qualname__}",
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in fields(value)
                if f.init
            },
        }
    if isinstance(value, dict):
        items = [(canonical(k), canonical(v)) for k, v in value.items()]
        return {"__dict__": sorted(items, key=lambda kv: json.dumps(kv[0], sort_keys=True))}
    if isinstance(value, (list, tuple)):
        return {"__seq__": [canonical(item) for item in value],
                "tuple": isinstance(value, tuple)}
    raise TypeError(
        f"cannot canonicalize {type(value).__name__} for the result cache"
    )


def point_key(point: SweepPoint, salt: Optional[str] = None) -> str:
    """Content-hash cache key of ``point`` under ``salt``."""
    document = {
        "format": _CACHE_FORMAT,
        "fn": f"{point.fn.__module__}.{point.fn.__qualname__}",
        "kwargs": canonical(dict(point.kwargs)),
        "seed": point.seed,
        "salt": code_version_salt() if salt is None else salt,
    }
    serialized = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(serialized.encode()).hexdigest()


class ResultCache:
    """Pickle store of computed point results, keyed by content hash."""

    def __init__(self, root: Union[str, "os.PathLike[str]"] = DEFAULT_CACHE_DIR):
        self.root = Path(root)
        #: Lifetime counters (a runner reports per-run deltas from these).
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit; ``(False, None)`` on a miss.

        A corrupt or unreadable entry counts as a miss and is removed so
        the recomputed value can take its place.
        """
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))
