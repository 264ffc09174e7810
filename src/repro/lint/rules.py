"""The SIM rules, implemented as one two-pass AST checker.

Pass 1 (:meth:`ModuleChecker._collect`) records module facts the rules
need: which local names are bound to (members of) the modules the
SIM001/SIM002 table watches, and which functions and methods are
generators.
Pass 2 walks the tree again and emits :class:`RawFinding` tuples; the
engine layer applies suppression comments and attaches file paths.

Each rule is deliberately *repo-shaped* rather than general: SIM003
only flags calls it can prove target a generator defined in the same
module (bare ``foo(...)`` statements, or ``self.foo(...)`` where the
enclosing class defines ``foo`` as a generator), because that is the
silent no-op the simulator actually suffers from, and the restriction
keeps the false-positive rate at zero on real code.  Its second half
is the same mistake one level down, for the three parking waits:
``Resource.serve(d)``, ``Environment.sleep(d)`` and ``Signal.park()`` are
plain calls that park the running process (or take a slot and arm its
release) and hand back a token, so their result must be yielded, alone —
any ``x.serve(...)``, ``x.sleep(...)`` or ``x.park()`` that is a bare
statement, the operand of ``yield from``, an argument of ``all_of`` /
``any_of``, or assigned to a name the function never yields is flagged
(``time.sleep`` is not one of them, and ``self.<name>`` is exempt where
the class defines that method as a generator of its own).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

#: Rule catalog: code -> one-line description (shown by ``--list-rules``).
RULES: Dict[str, str] = {
    "SIM000": "file does not parse (syntax error)",
    "SIM001": "wall-clock or process-environment read in model code; the "
              "only clock is Environment.now and the only inputs are the spec",
    "SIM002": "module-level random.* call, unseeded random.Random(), or OS "
              "entropy (os.urandom, uuid1/uuid4, secrets, SystemRandom); "
              "thread a seeded instance through config",
    "SIM003": "generator model function called as a bare statement — "
              "a silent no-op; wrap in env.process(...) or yield from it — "
              "or a .serve(...) / .sleep(...) / .park() result dropped, "
              "iterated or combined instead of yielded (a slot never "
              "released, a wait that never happens)",
    "SIM004": "== / != on simulated timestamps; use the units.py "
              "tolerance helpers (times_equal)",
    "SIM005": "mutable or call-expression default argument (shared "
              "across calls / instances)",
    "SIM007": "per-event allocation on a sim/flash hot path: tuple "
              "packed into heappush, or lambda closure handed to a "
              "schedule call",
    "SIM011": "frozen dataclass field with init=False but without "
              "compare=False: exec/cache.canonical skips it, so specs that "
              "compare unequal share one cache key",
}

#: The SIM001/SIM002 table: every way a value can enter a run from the
#: host instead of from the spec, by qualified name.  A ban, not a flow
#: analysis — host-side tooling that needs one says so on the line.
_WALL_CLOCKS = frozenset(
    [f"time.{name}" for name in (
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "clock_gettime", "clock_gettime_ns",
    )]
    + [f"datetime.{cls}.{name}" for cls in ("datetime", "date")
       for name in ("now", "utcnow", "today")]
)

#: The process environment: an input that is not in the spec.  Flagged
#: wherever it is named, called or not.
_ENVIRONMENT = frozenset({"os.environ", "os.getenv"})

#: ``random`` module-level functions backed by the shared global RNG.
_GLOBAL_RNG = frozenset(f"random.{name}" for name in (
    "seed", "random", "uniform", "randint", "randrange", "randbytes",
    "choice", "choices", "shuffle", "sample", "getrandbits",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "vonmisesvariate", "gammavariate", "betavariate", "paretovariate",
    "weibullvariate", "triangular",
))

#: Entropy no seed reaches; every member of ``secrets`` counts as well.
_OS_ENTROPY = frozenset({
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "random.SystemRandom",
})

#: Modules the table names members of; pass 1 tracks bindings to these.
_WATCHED_MODULES = frozenset({
    "time", "datetime", "random", "os", "uuid", "secrets",
})

#: The parking waits (SIM003): method name -> what goes wrong when its
#: result is not yielded.
_PARKING_WAITS = {
    "serve": "the slot is taken and its release never runs",
    "sleep": "the process never waits",
    "park": "the process is queued on the signal but runs on",
}

#: Name suffixes that mark a variable as a simulated timestamp.
_TIMESTAMP_SUFFIXES = ("_us", "_ts")

_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set,
    ast.ListComp, ast.DictComp, ast.SetComp, ast.GeneratorExp,
)

#: Constructor calls in defaults that build immutable values — sharing
#: one across calls is harmless (e.g. ``float("inf")``).
_IMMUTABLE_CONSTRUCTORS = frozenset({
    "float", "int", "str", "bytes", "bool", "complex", "tuple",
    "frozenset",
})


class RawFinding(NamedTuple):
    """One violation before suppression filtering: (line, col, code, msg)."""

    line: int
    col: int
    code: str
    message: str


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """The nodes of *fn* (a FunctionDef) at its own nesting level."""
    todo: List[ast.AST] = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a nested def's body belongs to the nested def
        todo.extend(ast.iter_child_nodes(node))


def _is_generator_def(fn: ast.AST) -> bool:
    """True if *fn* (a FunctionDef) yields at its own nesting level."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in _own_nodes(fn)
    )


def _decorator_is_dataclass(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return _terminal_name(target) == "dataclass"


def _is_frozen(decorator: ast.expr) -> bool:
    """``@dataclass(..., frozen=True)``."""
    return isinstance(decorator, ast.Call) and any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in decorator.keywords
    )


class ModuleChecker(ast.NodeVisitor):
    """Run all SIM rules over one parsed module."""

    def __init__(self, tree: ast.Module, hot_path: bool = False) -> None:
        self.tree = tree
        #: Whether this module sits on a sim/flash hot path (SIM007 scope).
        self.hot_path = hot_path
        self.findings: List[RawFinding] = []
        # Pass-1 facts.
        #: Local name -> the watched module (member) it is bound to:
        #: ``import time as t`` gives ``t: "time"``, ``from os import
        #: environ`` gives ``environ: "os.environ"``.
        self.bound: Dict[str, str] = {}
        self.module_generators: Set[str] = set()
        self.class_generators: Dict[str, Set[str]] = {}
        # Pass-2 state.
        self._class_stack: List[str] = []

    def run(self) -> List[RawFinding]:
        self._collect()
        self.visit(self.tree)
        return self.findings

    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(RawFinding(
            getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            code, message,
        ))

    # ------------------------------------------------------------------
    # Pass 1: module facts
    # ------------------------------------------------------------------

    def _collect(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    module = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    if module in _WATCHED_MODULES:
                        self.bound[alias.asname or module] = module
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module in _WATCHED_MODULES):
                for alias in node.names:
                    self.bound[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
        # Generator defs, by scope.
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_generator_def(node):
                    self.module_generators.add(node.name)
            elif isinstance(node, ast.ClassDef):
                gens = {
                    item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and _is_generator_def(item)
                }
                if gens:
                    self.class_generators[node.name] = gens

    # ------------------------------------------------------------------
    # Pass 2: rule checks
    # ------------------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for decorator in node.decorator_list:
            if _decorator_is_dataclass(decorator):
                self._check_dataclass_defaults(node)
                if _is_frozen(decorator):
                    self._check_cache_invisible_fields(node)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_signature_defaults(node)
        self._check_unyielded_wait(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_signature_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_signature_defaults(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_host_source(node)
        self._check_combined_wait(node)
        if self.hot_path:
            self._check_hot_path_allocation(node)
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        self._check_dropped_generator(node)
        wait = self._parking_wait(node.value)
        if wait is not None:
            self._emit(node, "SIM003",
                       f".{wait}(...) result dropped: "
                       f"{_PARKING_WAITS[wait]} — yield it")
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        wait = self._parking_wait(node.value)
        if wait is not None:
            self._emit(node, "SIM003",
                       f"yield from .{wait}(...) iterates an event; {wait} "
                       "is a plain call — yield its result")
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._check_timestamp_equality(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._check_environ(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        self._check_environ(node)

    # -- SIM001 / SIM002 ----------------------------------------------

    def _qualified(self, node: ast.expr) -> Optional[str]:
        """``node`` as a dotted name rooted at a watched module, else None."""
        if isinstance(node, ast.Name):
            return self.bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._qualified(node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def _check_host_source(self, node: ast.Call) -> None:
        name = self._qualified(node.func)
        if name is None:
            return
        shown = ast.unparse(node.func)
        if name in _WALL_CLOCKS:
            self._emit(node, "SIM001",
                       f"wall-clock call {shown}(); simulation code must "
                       "read Environment.now")
        elif name in _GLOBAL_RNG:
            self._emit(node, "SIM002",
                       f"module-level RNG call {shown}(); use a seeded "
                       "random.Random instance from config")
        elif name in _OS_ENTROPY or name.startswith("secrets."):
            self._emit(node, "SIM002",
                       f"{shown}() is never deterministic; use a seeded "
                       "random.Random instance from config")
        elif name == "random.Random" and not node.args and not node.keywords:
            self._emit(node, "SIM002",
                       f"unseeded {shown}(); pass an explicit seed "
                       "threaded through config")

    def _check_environ(self, node: ast.expr) -> None:
        if self._qualified(node) in _ENVIRONMENT:
            self._emit(node, "SIM001",
                       f"environment read {ast.unparse(node)}; a run's "
                       "inputs are its spec — pass the value in")

    # -- SIM003 --------------------------------------------------------

    def _check_dropped_generator(self, node: ast.Expr) -> None:
        call = node.value
        if not isinstance(call, ast.Call):
            return
        func = call.func
        name: Optional[str] = None
        if isinstance(func, ast.Name) and func.id in self.module_generators:
            name = func.id
        elif (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self._class_stack
                and func.attr in self.class_generators.get(
                    self._class_stack[-1], ())):
            name = f"self.{func.attr}"
        if name is not None:
            self._emit(node, "SIM003",
                       f"{name}(...) builds a generator that is never "
                       "started — wrap it in env.process(...) or yield "
                       "from it")

    def _parking_wait(self, node: ast.AST) -> Optional[str]:
        """``serve``/``sleep``/``park`` for ``<expr>.<that>(...)``, unless
        the receiver is a watched module (``time.sleep``) or the call is
        provably a generator of our own; else None."""
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PARKING_WAITS):
            return None
        wait = node.func.attr
        receiver = node.func.value
        if self._qualified(receiver) is not None:
            return None
        if (isinstance(receiver, ast.Name) and receiver.id == "self"
                and self._class_stack
                and wait in self.class_generators.get(self._class_stack[-1], ())):
            return None
        return wait

    def _check_unyielded_wait(self, fn: ast.FunctionDef) -> None:
        """``name = x.serve(...)`` (or sleep, park) where ``fn`` never
        yields ``name``."""
        held: List[Tuple[str, str, ast.Assign]] = []
        yielded: Set[str] = set()
        for node in _own_nodes(fn):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                wait = self._parking_wait(node.value)
                if wait is not None:
                    held.append((node.targets[0].id, wait, node))
            elif isinstance(node, ast.Yield) and isinstance(node.value, ast.Name):
                yielded.add(node.value.id)
        for name, wait, node in held:
            if name not in yielded:
                self._emit(node, "SIM003",
                           f"{name} = .{wait}(...) is never yielded: "
                           f"{_PARKING_WAITS[wait]}")

    def _check_combined_wait(self, node: ast.Call) -> None:
        """A parking wait handed to ``all_of``/``any_of``: it has no event
        for a condition to wait on."""
        if _terminal_name(node.func) not in ("all_of", "any_of"):
            return
        for arg in node.args:
            items = arg.elts if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
            for item in items:
                wait = self._parking_wait(item)
                if wait is not None:
                    self._emit(item, "SIM003",
                               f".{wait}(...) inside {_terminal_name(node.func)}"
                               "(...): a parking wait has no event to combine "
                               "— use env.timeout() / signal.wait()")

    # -- SIM004 --------------------------------------------------------

    def _check_timestamp_equality(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        for operand in (node.left, *node.comparators):
            if self._is_timestamp_expr(operand):
                shown = _terminal_name(operand) or "timestamp"
                self._emit(node, "SIM004",
                           f"exact equality on simulated timestamp "
                           f"{shown!r}; use the units.py tolerance "
                           "helpers (times_equal)")
                return

    @staticmethod
    def _is_timestamp_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "now":
            return True
        name = _terminal_name(node)
        return name is not None and name.endswith(_TIMESTAMP_SUFFIXES)

    # -- SIM005 --------------------------------------------------------

    def _check_signature_defaults(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS):
                self._emit(default, "SIM005",
                           "mutable literal default argument is shared "
                           "across calls; default to None and build "
                           "inside the function")
            elif (isinstance(default, ast.Call)
                    and _terminal_name(default.func)
                    not in _IMMUTABLE_CONSTRUCTORS):
                shown = _terminal_name(default.func) or "call"
                self._emit(default, "SIM005",
                           f"call-expression default {shown}(...) is "
                           "evaluated once at def time and shared across "
                           "calls; default to None and build inside the "
                           "function")

    def _check_dataclass_defaults(self, node: ast.ClassDef) -> None:
        for item in node.body:
            # Only annotated assignments are dataclass fields; a plain
            # ``NAME = ...`` in the body is a class constant.  ClassVar
            # annotations are likewise shared on purpose.
            if not isinstance(item, ast.AnnAssign) or item.value is None:
                continue
            if _terminal_name(item.annotation) == "ClassVar" or (
                    isinstance(item.annotation, ast.Subscript)
                    and _terminal_name(item.annotation.value) == "ClassVar"):
                continue
            value = item.value
            if isinstance(value, _MUTABLE_LITERALS):
                self._emit(value, "SIM005",
                           "mutable dataclass field default is shared "
                           "across instances; use "
                           "field(default_factory=...)")
            elif (isinstance(value, ast.Call)
                    and _terminal_name(value.func) != "field"
                    and _terminal_name(value.func)
                    not in _IMMUTABLE_CONSTRUCTORS):
                shown = _terminal_name(value.func) or "call"
                self._emit(value, "SIM005",
                           f"dataclass field default {shown}(...) is "
                           "evaluated once at class-definition time and "
                           "shared across instances; use "
                           "field(default_factory=...)")

    # -- SIM011 --------------------------------------------------------

    def _check_cache_invisible_fields(self, node: ast.ClassDef) -> None:
        """``field(init=False)`` without ``compare=False``, frozen classes.

        ``exec/cache.canonical`` keys a dataclass by its ``init=True``
        fields only: derived fields would duplicate the inputs.  A field
        that is left out of the key but still takes part in ``==`` lets
        two specs that compare unequal share one cached result.  Derived
        fields say ``compare=False``; anything else is an init field.
        """
        for item in node.body:
            if not (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and isinstance(item.value, ast.Call)
                    and _terminal_name(item.value.func) == "field"):
                continue
            flags = {
                kw.arg: kw.value.value for kw in item.value.keywords
                if isinstance(kw.value, ast.Constant)
            }
            if flags.get("init") is False and flags.get("compare") is not False:
                self._emit(item, "SIM011",
                           f"{node.name}.{item.target.id} is init=False but "
                           "still takes part in equality; exec/cache."
                           "canonical skips it, so specs that compare "
                           "unequal share one cache key (mark derived "
                           "fields compare=False, or make it an init field)")

    # -- SIM007 --------------------------------------------------------

    def _check_hot_path_allocation(self, node: ast.Call) -> None:
        """Flag per-event allocation churn on sim/flash hot paths.

        Two patterns the hot-path refactor removed and the rule keeps
        out: packing a fresh tuple into ``heappush`` on every schedule,
        and handing a lambda closure to a schedule/callback call (one
        closure object per event).  Deliberate exceptions carry a
        line-level ``# simlint: disable=SIM007`` explaining themselves.
        """
        func = node.func
        name = _terminal_name(func)
        if name == "heappush" and any(
                isinstance(arg, ast.Tuple) for arg in node.args):
            self._emit(node, "SIM007",
                       "tuple packed into heappush per event; reuse the "
                       "scheduled entry (or justify with a line "
                       "suppression) to keep schedule allocation-free")
            return
        takes_callback = (
            name is not None and "schedule" in name.lower()
        ) or (
            name == "append"
            and isinstance(func, ast.Attribute)
            and _terminal_name(func.value) == "callbacks"
        )
        if takes_callback:
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            if any(isinstance(arg, ast.Lambda) for arg in arguments):
                shown = name if name != "append" else "callbacks.append"
                self._emit(node, "SIM007",
                           f"lambda closure passed to {shown}(...) "
                           "allocates per event; bind a method or reuse "
                           "a callable instead")


def check_module(tree: ast.Module, hot_path: bool = False) -> List[RawFinding]:
    """All SIM findings for one parsed module, unsuppressed."""
    return ModuleChecker(tree, hot_path=hot_path).run()


def check_source(
    source: str, hot_path: bool = False
) -> Tuple[List[RawFinding], bool]:
    """Parse and check; returns (findings, parsed_ok)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [RawFinding(exc.lineno or 1, (exc.offset or 1) - 1,
                           "SIM000", f"syntax error: {exc.msg}")], False
    return check_module(tree, hot_path=hot_path), True
