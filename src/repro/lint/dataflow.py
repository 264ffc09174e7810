"""Whole-program determinism dataflow: the SIM008–SIM012 rules.

Built on the :mod:`repro.lint.callgraph` symbol table, this module runs
a forward taint analysis from *nondeterminism sources* (wall clocks,
``os.urandom``, unseeded ``random.Random()``, ``os.environ``, ``id()``,
``hash()``) through assignments, returns, and resolved calls into
*determinism sinks* (fields of ``*Result``/``*Stats``/``*Spec``
dataclasses, event timestamps, cache keys), plus four sibling
whole-program checks that reuse the same call graph.

Soundness posture (see DESIGN.md §15): the taint engine is
flow-insensitive within a function and summary-based across functions —
it over-approximates (a tainted value poisons every name it is ever
assigned to) but under-approximates dynamic dispatch (calls through
arbitrary object attributes propagate taint from their receiver and
arguments, not from the unseen callee body).  Both directions are
deliberate: over-approximation is what suppression comments are for,
and the missed-dispatch surface is exactly the one the runtime
sanitizer (:mod:`repro.lint.sanitizer`) covers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import CallSite, FunctionInfo, Project
from repro.lint.rules import _RANDOM_MODULE_FUNCS, _WALL_CLOCK_TIME_FUNCS

#: Resolved qualnames whose call result is nondeterministic.
_SOURCE_CALLS: Dict[str, str] = {}
for _fn in _WALL_CLOCK_TIME_FUNCS:
    _SOURCE_CALLS[f"time.{_fn}"] = f"wall-clock time.{_fn}()"
for _fn in _RANDOM_MODULE_FUNCS:
    _SOURCE_CALLS[f"random.{_fn}"] = f"global RNG random.{_fn}()"
_SOURCE_CALLS.update({
    "datetime.datetime.now": "wall-clock datetime.now()",
    "datetime.datetime.utcnow": "wall-clock datetime.utcnow()",
    "datetime.datetime.today": "wall-clock datetime.today()",
    "datetime.date.today": "wall-clock date.today()",
    "os.urandom": "os.urandom()",
    "os.getenv": "environment read os.getenv()",
    "os.getpid": "process id os.getpid()",
    "uuid.uuid1": "uuid.uuid1()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
})

#: Builtins whose value depends on interpreter/object identity.
_SOURCE_BUILTINS = {
    "id": "object identity id()",
    "hash": "PYTHONHASHSEED-dependent hash()",
}

#: Class-name suffixes marking a determinism sink (result carriers).
_SINK_CLASS_SUFFIXES = ("Result", "Stats", "Spec")

#: Terminal call names that schedule simulation events; a tainted delay
#: or timestamp here corrupts the event order itself.  ``serve`` is one
#: since its duration stopped passing through a ``Timeout``.
_EVENT_SINK_NAMES = frozenset({"timeout", "Timeout", "serve"})

#: Resolved qualname suffixes that feed the result-cache key.
_CACHE_SINK_SUFFIXES = (".point_key", ".canonical")

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "clear", "remove", "discard",
})

#: Builtin consumers for which iteration order cannot matter.
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "set", "frozenset", "sorted", "min", "max", "sum", "len", "any", "all",
})

#: Frozen-dataclass name suffixes that ride into the result-cache key
#: (sweep points and the config objects passed as their kwargs).  The
#: SIM011 annotation check applies only to these; a frozen dataclass
#: that never meets the cache may hold whatever it likes.
_CACHE_CARRIER_SUFFIXES = ("Spec", "Point", "Scenario", "Config")

#: Annotation terminal names exec/cache.canonical cannot serialize.
_UNCANONICAL_ANNOTATIONS = frozenset({
    "set", "Set", "frozenset", "FrozenSet", "MutableSet",
    "Callable", "Iterator", "Iterable", "Generator",
})


# ---------------------------------------------------------------------------
# Taint values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Taint:
    """Provenance of one nondeterministic value."""

    #: Human description of the source, e.g. ``"wall-clock time.time()"``.
    source: str
    #: (path, line) of the source expression.
    site: Tuple[str, int]
    #: Function qualnames the value flowed through, source-first.
    chain: Tuple[str, ...] = ()

    def via(self, qualname: str) -> "Taint":
        if self.chain and self.chain[-1] == qualname:
            return self
        return Taint(self.source, self.site, self.chain + (qualname,))

    def describe_chain(self) -> str:
        return " -> ".join(self.chain) if self.chain else "this function"


@dataclass(frozen=True)
class TV:
    """Taint lattice value: real provenance and/or parameter origins."""

    real: Optional[Taint] = None
    params: FrozenSet[int] = frozenset()

    def __or__(self, other: "TV") -> "TV":
        return TV(self.real or other.real, self.params | other.params)

    @property
    def clean(self) -> bool:
        return self.real is None and not self.params


_CLEAN = TV()


@dataclass
class Summary:
    """What a function does with taint, as seen from call sites."""

    #: Taint the return value always carries (from internal sources).
    returns: Optional[Taint] = None
    #: Parameter positions that flow into the return value.
    param_flow: FrozenSet[int] = frozenset()

    def key(self) -> Tuple[Optional[Tuple[str, Tuple[str, int]]], FrozenSet[int]]:
        real = (self.returns.source, self.returns.site) \
            if self.returns else None
        return (real, self.param_flow)


@dataclass(frozen=True)
class ProjectFinding:
    """A whole-program finding, carrying its file path."""

    path: str
    line: int
    col: int
    code: str
    message: str


# ---------------------------------------------------------------------------
# Per-function taint evaluation
# ---------------------------------------------------------------------------


class _FunctionTaint:
    """Flow-insensitive taint pass over one function body."""

    def __init__(
        self,
        project: Project,
        info: FunctionInfo,
        summaries: Dict[str, Summary],
    ) -> None:
        self.project = project
        self.info = info
        self.resolver = project.resolver(info.module)
        self.summaries = summaries
        self.params = info.param_names
        self.param_index = {name: i for i, name in enumerate(self.params)}
        self.tainted: Dict[str, TV] = {}
        #: Local name -> project class qualname it was constructed from.
        self.var_types: Dict[str, str] = {}
        self.returns = TV()
        self.findings: List[ProjectFinding] = []

    # -- expression evaluation ----------------------------------------

    def eval(self, node: Optional[ast.expr]) -> TV:
        if node is None or isinstance(node, ast.Constant):
            return _CLEAN
        if isinstance(node, ast.Name):
            tv = self.tainted.get(node.id, _CLEAN)
            if node.id in self.param_index:
                tv = tv | TV(params=frozenset({self.param_index[node.id]}))
            return tv
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            resolved = self.resolver.resolve_expr(
                node, self.info.class_name
            )
            if resolved == "os.environ":
                return TV(real=self._taint("environment read os.environ",
                                           node))
            return self.eval(node.value)
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, (ast.BinOp,)):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            out = _CLEAN
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, ast.Compare):
            out = self.eval(node.left)
            for comparator in node.comparators:
                out = out | self.eval(comparator)
            return out
        if isinstance(node, ast.IfExp):
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            out = _CLEAN
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = _CLEAN
            for elt in node.elts:
                out = out | self.eval(elt)
            return out
        if isinstance(node, ast.Dict):
            out = _CLEAN
            for key in node.keys:
                out = out | self.eval(key)
            for value in node.values:
                out = out | self.eval(value)
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            out = _CLEAN
            for gen in node.generators:
                out = out | self.eval(gen.iter)
            return out | self.eval(node.elt)
        if isinstance(node, ast.DictComp):
            out = _CLEAN
            for gen in node.generators:
                out = out | self.eval(gen.iter)
            return out | self.eval(node.key) | self.eval(node.value)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.NamedExpr):
            tv = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self._merge(node.target.id, tv)
            return tv
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return self.eval(node.value) if node.value is not None else _CLEAN
        return _CLEAN

    def _taint(self, source: str, node: ast.AST) -> Taint:
        return Taint(
            source=source,
            site=(self.info.path, getattr(node, "lineno", 1)),
            chain=(self.info.qualname,),
        )

    def _eval_call(self, node: ast.Call) -> TV:
        resolved = self.resolver.resolve_call(node, self.info.class_name)
        func = node.func

        # -- nondeterminism sources -----------------------------------
        if resolved in _SOURCE_CALLS:
            return TV(real=self._taint(_SOURCE_CALLS[resolved], node))
        if resolved in ("random.Random", "random.SystemRandom"):
            if resolved.endswith("SystemRandom") or (
                not node.args and not node.keywords
            ):
                return TV(real=self._taint(
                    f"unseeded {resolved.split('.')[-1]}()", node))
            return _CLEAN  # a seeded Random is deterministic
        if (isinstance(func, ast.Name) and func.id in _SOURCE_BUILTINS
                and self.resolver.resolve_name(func.id) is None):
            return TV(real=self._taint(_SOURCE_BUILTINS[func.id], node))

        arg_tvs = [self.eval(arg) for arg in node.args]
        kw_tvs = {kw.arg: self.eval(kw.value) for kw in node.keywords}

        # -- sink checks ----------------------------------------------
        self._check_sinks(node, resolved, arg_tvs, kw_tvs)

        # -- project-call summaries -----------------------------------
        target = resolved
        if target is not None and target in self.project.classes:
            target = self.project.classes[target].methods.get("__init__")
        if target is not None and target in self.summaries:
            summary = self.summaries[target]
            out = _CLEAN
            if summary.returns is not None:
                out = out | TV(
                    real=summary.returns.via(self.info.qualname)
                )
            if summary.param_flow:
                callee_info = self.project.functions[target]
                offset = 1 if (
                    callee_info.is_method
                    and isinstance(func, ast.Attribute)
                ) else 0
                callee_params = callee_info.param_names
                for position, tv in enumerate(arg_tvs):
                    if position + offset in summary.param_flow:
                        out = self._flow_through(out, tv, target)
                for name, tv in kw_tvs.items():
                    if name in callee_params and \
                            callee_params.index(name) in summary.param_flow:
                        out = self._flow_through(out, tv, target)
            return out

        # -- unresolved / external calls: conservative propagation ----
        out = _CLEAN
        if isinstance(func, ast.Attribute):
            # A method on a tainted object (e.g. an unseeded RNG)
            # returns tainted values.
            out = out | self.eval(func.value)
        for tv in arg_tvs:
            out = out | tv
        for tv in kw_tvs.values():
            out = out | tv
        return out

    def _flow_through(self, acc: TV, tv: TV, callee: str) -> TV:
        if tv.real is not None:
            acc = acc | TV(real=tv.real.via(callee).via(self.info.qualname))
        return acc | TV(params=tv.params)

    # -- sinks ---------------------------------------------------------

    def _sink_class(self, qualname: Optional[str]) -> Optional[str]:
        if qualname is None or qualname not in self.project.classes:
            return None
        name = qualname.rsplit(".", 1)[-1]
        if name.endswith(_SINK_CLASS_SUFFIXES):
            return name
        return None

    def _check_sinks(
        self,
        node: ast.Call,
        resolved: Optional[str],
        arg_tvs: Sequence[TV],
        kw_tvs: Dict[Optional[str], TV],
    ) -> None:
        func = node.func

        sink_name = self._sink_class(resolved)
        if sink_name is not None:
            for position, tv in enumerate(arg_tvs):
                if tv.real is not None:
                    self._emit_sim008(
                        node, tv.real,
                        f"constructor argument {position} of {sink_name}",
                    )
            for name, tv in kw_tvs.items():
                if tv.real is not None:
                    self._emit_sim008(
                        node, tv.real,
                        f"field {name!r} of {sink_name}",
                    )

        terminal = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if terminal in _EVENT_SINK_NAMES:
            for tv in list(arg_tvs) + list(kw_tvs.values()):
                if tv.real is not None:
                    self._emit_sim008(
                        node, tv.real,
                        f"event-schedule call .{terminal}(...)",
                    )
        if resolved is not None and resolved.endswith(_CACHE_SINK_SUFFIXES):
            for tv in list(arg_tvs) + list(kw_tvs.values()):
                if tv.real is not None:
                    self._emit_sim008(
                        node, tv.real,
                        f"cache-key input {resolved.rsplit('.', 1)[-1]}(...)",
                    )

    def _emit_sim008(
        self, node: ast.AST, taint: Taint, sink: str
    ) -> None:
        self.findings.append(ProjectFinding(
            path=self.info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code="SIM008",
            message=(
                f"{taint.source} (from {taint.site[0]}:{taint.site[1]}) "
                f"reaches {sink} via {taint.describe_chain()}; results "
                "must be pure functions of the spec"
            ),
        ))

    # -- statements ----------------------------------------------------

    def _merge(self, name: str, tv: TV) -> bool:
        if tv.clean:
            return False
        old = self.tainted.get(name, _CLEAN)
        new = old | tv
        if (new.real is not None) != (old.real is not None) or \
                new.params != old.params:
            self.tainted[name] = new
            return True
        return False

    def _bind_target(self, target: ast.expr, tv: TV) -> None:
        if isinstance(target, ast.Name):
            self._merge(target.id, tv)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, tv)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, tv)
        elif isinstance(target, ast.Attribute) and tv.real is not None:
            # Attribute store on a known sink instance.
            if isinstance(target.value, ast.Name):
                cls = self.var_types.get(target.value.id)
                sink_name = self._sink_class(cls)
                if sink_name is not None:
                    self._emit_sim008(
                        target, tv.real,
                        f"field {target.attr!r} of {sink_name}",
                    )

    def _record_type(self, target: ast.expr, value: ast.expr) -> None:
        if not (isinstance(target, ast.Name) and isinstance(value, ast.Call)):
            return
        resolved = self.resolver.resolve_call(value, self.info.class_name)
        if resolved is not None and resolved in self.project.classes:
            self.var_types[target.id] = resolved

    def run(self) -> Summary:
        body = self.info.node.body
        # Flow-insensitive fixpoint: assignments can feed earlier lines
        # (loops), so re-walk until the tainted-name map stabilizes.
        for _ in range(8):
            self.findings.clear()
            before = {
                name: (tv.real is not None, tv.params)
                for name, tv in self.tainted.items()
            }
            for stmt in body:
                self._walk_stmt(stmt)
            after = {
                name: (tv.real is not None, tv.params)
                for name, tv in self.tainted.items()
            }
            if after == before:
                break
        return Summary(
            returns=self.returns.real,
            param_flow=self.returns.params,
        )

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            tv = self.eval(stmt.value)
            for target in stmt.targets:
                self._record_type(target, stmt.value)
                self._bind_target(target, tv)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                tv = self.eval(stmt.value)
                self._record_type(stmt.target, stmt.value)
                self._bind_target(stmt.target, tv)
        elif isinstance(stmt, ast.AugAssign):
            tv = self.eval(stmt.value) | self.eval(stmt.target)
            self._bind_target(stmt.target, tv)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns = self.returns | self.eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tv = self.eval(stmt.iter)
            self._bind_target(stmt.target, tv)
            for inner in stmt.body + stmt.orelse:
                self._walk_stmt(inner)
        elif isinstance(stmt, (ast.While,)):
            self.eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._walk_stmt(inner)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            for inner in stmt.body + stmt.orelse:
                self._walk_stmt(inner)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tv = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, tv)
            for inner in stmt.body:
                self._walk_stmt(inner)
        elif isinstance(stmt, ast.Try):
            for inner in (stmt.body + stmt.orelse + stmt.finalbody):
                self._walk_stmt(inner)
            for handler in stmt.handlers:
                for inner in handler.body:
                    self._walk_stmt(inner)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self.eval(stmt.exc)
            elif isinstance(stmt, ast.Assert):
                self.eval(stmt.test)
        # Nested defs/classes are separate scopes; their bodies are
        # analyzed as their own functions (or not at all, for closures —
        # a documented under-approximation).


# ---------------------------------------------------------------------------
# The analysis driver
# ---------------------------------------------------------------------------


class DataflowAnalysis:
    """Runs the whole-program rules over a built :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, Summary] = {
            qual: Summary() for qual in project.functions
        }
        self.sweep_cells = self._find_sweep_cells()

    # -- shared facts --------------------------------------------------

    def _find_sweep_cells(self) -> Dict[str, CallSite]:
        """fn targets handed to SweepPoint(...)/grid(...), by qualname."""
        cells: Dict[str, CallSite] = {}
        for caller in sorted(self.project.call_sites):
            info = self.project.functions[caller]
            resolver = self.project.resolver(info.module)
            for site in self.project.call_sites[caller]:
                fn_expr = _sweep_point_fn(site)
                if fn_expr is None:
                    continue
                target = resolver.resolve_expr(fn_expr, info.class_name)
                if target is not None and target in self.project.functions:
                    cells.setdefault(target, site)
        return cells

    # -- SIM008 --------------------------------------------------------

    def rule_sim008(self) -> List[ProjectFinding]:
        """Nondeterminism source reaches a result/stats/spec sink.

        Rationale: every figure, fingerprint, and cached sweep cell in
        this repo asserts byte-identical replay.  A wall-clock read,
        unseeded RNG draw, ``os.environ`` probe, ``id()``, or ``hash()``
        that flows — through any chain of assignments and calls — into a
        ``*Result``/``*Stats``/``*Spec`` field, an event timestamp, or a
        cache-key input silently breaks that contract.

        Bad::

            def _stamp():
                return time.time()
            def run_cell():
                return RunResult(started_us=_stamp())   # SIM008

        Good::

            def run_cell(env):
                return RunResult(started_us=env.now)    # simulated clock
        """
        for _ in range(12):
            changed = False
            for qual in sorted(self.project.functions):
                info = self.project.functions[qual]
                taint_pass = _FunctionTaint(
                    self.project, info, self.summaries
                )
                new = taint_pass.run()
                if new.key() != self.summaries[qual].key():
                    self.summaries[qual] = new
                    changed = True
            if not changed:
                break
        findings: List[ProjectFinding] = []
        for qual in sorted(self.project.functions):
            info = self.project.functions[qual]
            taint_pass = _FunctionTaint(self.project, info, self.summaries)
            taint_pass.run()
            findings.extend(taint_pass.findings)
        return findings

    # -- SIM009 --------------------------------------------------------

    def rule_sim009(self) -> List[ProjectFinding]:
        """Sweep cell (or transitive callee) reads mutated module state.

        Rationale: the exec engine's parallel==serial invariant holds
        because a cell's inputs are exactly ``(fn, kwargs, seed)``.  A
        cell that reads a module-level name some function *mutates*
        (a ``global`` rebind or in-place container mutation) sees
        whatever the current process accumulated — workers diverge from
        serial runs and from each other.

        Bad::

            _memo = {}
            def cell(n):
                if n not in _memo:          # SIM009: reads mutated state
                    _memo[n] = expensive(n)
                return _memo[n]

        Good::

            def cell(n):
                return expensive(n)         # pure function of its inputs
        """
        mutated = self._mutated_globals()
        if not mutated:
            return []
        findings: List[ProjectFinding] = []
        for cell in sorted(self.sweep_cells):
            reachable = [cell] + sorted(self.project.transitive_callees(cell))
            for qual in reachable:
                info = self.project.functions[qual]
                for name, node in sorted(
                    self._global_reads(info), key=lambda e: (
                        e[1].lineno, e[1].col_offset, e[0])
                ):
                    target = f"{info.module}.{name}"
                    if target not in mutated:
                        continue
                    findings.append(ProjectFinding(
                        path=info.path,
                        line=node.lineno,
                        col=node.col_offset,
                        code="SIM009",
                        message=(
                            f"sweep cell {cell} reads module-level mutable "
                            f"state {target!r} (via {qual}); mutated at "
                            f"{mutated[target]} — workers diverge from "
                            "serial runs"
                        ),
                    ))
        return findings

    def _mutated_globals(self) -> Dict[str, str]:
        """Module-global qualname -> 'path:line' of one mutation site."""
        mutated: Dict[str, str] = {}

        def note(module: str, name: str, path: str, node: ast.AST) -> None:
            qual = f"{module}.{name}"
            mutated.setdefault(
                qual, f"{path}:{getattr(node, 'lineno', 1)}"
            )

        for qual in sorted(self.project.functions):
            info = self.project.functions[qual]
            module = self.project.modules[info.module]
            declared_global: Set[str] = set()
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            for node in ast.walk(info.node):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name) and \
                                target.id in declared_global:
                            note(info.module, target.id, info.path, node)
                        elif isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id in module.module_globals:
                            note(info.module, target.value.id,
                                 info.path, node)
                elif isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in _MUTATOR_METHODS and \
                        isinstance(node.func.value, ast.Name) and \
                        node.func.value.id in module.module_globals:
                    note(info.module, node.func.value.id, info.path, node)
        return mutated

    def _global_reads(
        self, info: FunctionInfo
    ) -> List[Tuple[str, ast.Name]]:
        """(name, node) for loads of this module's module-level names."""
        module = self.project.modules[info.module]
        local_names: Set[str] = set(info.param_names)
        declared_global: Set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
        out: List[Tuple[str, ast.Name]] = []
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Name) or \
                    not isinstance(node.ctx, ast.Load):
                continue
            name = node.id
            if name not in module.module_globals:
                continue
            if name in local_names and name not in declared_global:
                continue  # shadowed by a local binding
            out.append((name, node))
        return out

    # -- SIM010 --------------------------------------------------------

    def rule_sim010(self) -> List[ProjectFinding]:
        """Unordered-container iteration feeds scheduling or output.

        Rationale: ``set``/``frozenset`` iteration order depends on
        PYTHONHASHSEED for str/bytes elements.  Iterating one to
        schedule events, build a list/tuple, or emit serialized output
        makes the event interleaving (and therefore every downstream
        figure byte) vary across interpreter launches.  Feeding a set
        into an order-insensitive consumer (``sorted``, ``sum``,
        another set) is fine.

        Bad::

            for shard in {"a", "b", "c"}:      # SIM010
                env.process(drain(shard))

        Good::

            for shard in sorted({"a", "b", "c"}):
                env.process(drain(shard))
        """
        ordered_scope = self._order_sensitive_functions()
        findings: List[ProjectFinding] = []
        for qual in sorted(ordered_scope):
            info = self.project.functions[qual]
            set_names = self._set_typed_names(info)
            for node in ast.walk(info.node):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.DictComp)):
                    iters.extend(gen.iter for gen in node.generators)
                elif isinstance(node, ast.Call):
                    terminal = _call_terminal(node)
                    if terminal in ("list", "tuple") and node.args:
                        iters.append(node.args[0])
                for candidate in iters:
                    if self._is_set_expr(candidate, set_names):
                        findings.append(ProjectFinding(
                            path=info.path,
                            line=candidate.lineno,
                            col=candidate.col_offset,
                            code="SIM010",
                            message=(
                                "iteration over an unordered set feeds "
                                "event scheduling or serialized output "
                                f"(in {qual}); wrap it in sorted(...) to "
                                "pin the order"
                            ),
                        ))
        return findings

    def _order_sensitive_functions(self) -> Set[str]:
        """Functions whose iteration order can reach observable state."""
        direct: Set[str] = set()
        for qual, sites in self.project.call_sites.items():
            for site in sites:
                terminal = _call_terminal(site.node)
                if terminal in ("timeout", "Timeout", "schedule",
                                "succeed", "process", "heappush"):
                    direct.add(qual)
                    break
        out: Set[str] = set()
        for qual in self.project.functions:
            if qual in direct or \
                    self.project.transitive_callees(qual) & direct:
                out.add(qual)
        out |= self.project.reachable_from(sorted(self.sweep_cells))
        return out

    def _set_typed_names(self, info: FunctionInfo) -> Set[str]:
        """Local names (flow-insensitively) bound to set values."""
        names: Set[str] = set()
        module = self.project.modules[info.module]
        for name, value in module.module_globals.items():
            if self._is_set_literal(value):
                names.add(name)
        for _ in range(4):
            grew = False
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not self._is_set_expr(node.value, names):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id not in names:
                        names.add(target.id)
                        grew = True
            if not grew:
                break
        return names

    @staticmethod
    def _is_set_literal(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _call_terminal(node) in ("set", "frozenset")
        return False

    def _is_set_expr(self, node: ast.expr, set_names: Set[str]) -> bool:
        if self._is_set_literal(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in ("intersection", "union", "difference",
                                  "symmetric_difference"):
                return self._is_set_expr(node.func.value, set_names)
        return False

    # -- SIM011 --------------------------------------------------------

    def rule_sim011(self) -> List[ProjectFinding]:
        """Frozen spec dataclass field invisible to cache canonicalization.

        Rationale: ``exec/cache.canonical`` hashes only ``init=True``
        fields of a dataclass and only value shapes it knows (primitives,
        bytes, enums, dataclasses, dicts, sequences).  A frozen spec
        field that escapes that — ``field(init=False)`` without
        ``compare=False``, or a ``set``/``Callable``-typed annotation —
        either drifts out of the cache key (stale hits) or fails to hash
        at all.

        Bad::

            @dataclass(frozen=True)
            class SweepCellSpec:
                n_ops: int
                mode: str = field(init=False, default="fast")   # SIM011
                excluded: set = field(default_factory=set)      # SIM011

        Good::

            @dataclass(frozen=True)
            class SweepCellSpec:
                n_ops: int
                mode: str = "fast"
                excluded: Tuple[str, ...] = ()
        """
        findings: List[ProjectFinding] = []
        for qual in sorted(self.project.classes):
            cls = self.project.classes[qual]
            if not cls.is_frozen_dataclass:
                continue
            for item in cls.node.body:
                if not isinstance(item, ast.AnnAssign) or \
                        not isinstance(item.target, ast.Name):
                    continue
                if _annotation_is_classvar(item.annotation):
                    continue
                field_name = item.target.id
                flags = _field_call_flags(item.value)
                if flags.get("init") is False and \
                        flags.get("compare") is not False:
                    findings.append(ProjectFinding(
                        path=cls.path, line=item.lineno,
                        col=item.col_offset, code="SIM011",
                        message=(
                            f"{cls.qualname.rsplit('.', 1)[-1]}."
                            f"{field_name} is init=False but still "
                            "participates in equality; exec/cache."
                            "canonical skips it, so equal-looking specs "
                            "can hash apart (mark compare=False for "
                            "derived fields, or make it an init field)"
                        ),
                    ))
                bad = _uncanonical_annotation(item.annotation)
                if bad is not None and cls.qualname.rsplit(".", 1)[-1] \
                        .endswith(_CACHE_CARRIER_SUFFIXES):
                    findings.append(ProjectFinding(
                        path=cls.path, line=item.lineno,
                        col=item.col_offset, code="SIM011",
                        message=(
                            f"{cls.qualname.rsplit('.', 1)[-1]}."
                            f"{field_name} is annotated {bad!r}, which "
                            "exec/cache.canonical cannot serialize — the "
                            "spec cannot participate in the result-cache "
                            "key (use a tuple, or justify with a "
                            "suppression)"
                        ),
                    ))
        return findings

    # -- SIM012 --------------------------------------------------------

    def rule_sim012(self) -> List[ProjectFinding]:
        """Unpicklable closure/lambda headed toward the process pool.

        Rationale: sweep points ship to worker processes by *reference*
        (module + qualname); a lambda or a function defined inside
        another function has no importable identity and dies in pickling
        — at best loudly at runtime, at worst only when ``--parallel``
        is first used in CI.  The static check catches it on the branch
        that never ran.

        Bad::

            def fig_cells(sizes):
                def cell(size):                 # nested: unpicklable
                    return run_one(size)
                return [SweepPoint(label=str(s), fn=cell)   # SIM012
                        for s in sizes]

        Good::

            def _cell(size):
                return run_one(size)
            def fig_cells(sizes):
                return [SweepPoint(label=str(s), fn=_cell,
                                   kwargs={"size": s}) for s in sizes]
        """
        findings: List[ProjectFinding] = []
        for qual in sorted(self.project.call_sites):
            info = self.project.functions[qual]
            nested = {
                child.name
                for parent in ast.walk(info.node)
                for child in ast.iter_child_nodes(parent)
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child is not info.node
            }
            lambda_names = {
                target.id
                for node in ast.walk(info.node)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Lambda)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for site in self.project.call_sites[qual]:
                node = site.node
                terminal = _call_terminal(node)
                candidates: List[ast.expr] = []
                fn_expr = _sweep_point_fn(site)
                if fn_expr is not None:
                    candidates.append(fn_expr)
                elif terminal in ("submit", "apply_async"):
                    candidates.extend(node.args)
                    candidates.extend(kw.value for kw in node.keywords)
                for expr in candidates:
                    shown: Optional[str] = None
                    if isinstance(expr, ast.Lambda):
                        shown = "a lambda"
                    elif isinstance(expr, ast.Name) and (
                        expr.id in nested or expr.id in lambda_names
                    ):
                        shown = f"nested function {expr.id!r}"
                    if shown is not None:
                        findings.append(ProjectFinding(
                            path=info.path,
                            line=expr.lineno,
                            col=expr.col_offset,
                            code="SIM012",
                            message=(
                                f"{shown} passed toward the process pool "
                                f"(in {qual}); workers resolve functions "
                                "by module.qualname — use a module-level "
                                "function with kwargs"
                            ),
                        ))
        return findings


# ---------------------------------------------------------------------------
# Helpers and the public driver
# ---------------------------------------------------------------------------


def _call_terminal(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _sweep_point_fn(site: CallSite) -> Optional[ast.expr]:
    """The cell function a call site hands to the sweep engine, if any.

    ``SweepPoint(label, fn, ...)`` and the grid builder ``grid(name, fn,
    ...)`` (which makes one point per coordinate) both carry it second.
    """
    node = site.node
    callee = site.callee or ""
    terminal = _call_terminal(node)
    is_sweep_point = (
        callee.endswith(".SweepPoint") or terminal == "SweepPoint"
        or callee.endswith(".exec.runner.grid") or terminal == "grid"
    )
    if not is_sweep_point:
        return None
    for keyword in node.keywords:
        if keyword.arg == "fn":
            return keyword.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


def _annotation_is_classvar(node: ast.expr) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id == "ClassVar"
    if isinstance(node, ast.Attribute):
        return node.attr == "ClassVar"
    return False


def _field_call_flags(node: Optional[ast.expr]) -> Dict[str, object]:
    """Keyword flags of a ``field(...)`` default, or empty."""
    if not isinstance(node, ast.Call):
        return {}
    if _call_terminal(node) != "field":
        return {}
    out: Dict[str, object] = {}
    for keyword in node.keywords:
        if keyword.arg is not None and isinstance(keyword.value, ast.Constant):
            out[keyword.arg] = keyword.value.value
    return out


def _uncanonical_annotation(node: ast.expr) -> Optional[str]:
    """First annotation component canonical() cannot handle, or None."""
    for child in ast.walk(node):
        name: Optional[str] = None
        if isinstance(child, ast.Name):
            name = child.id
        elif isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            # String annotations: match bare names inside.
            for candidate in _UNCANONICAL_ANNOTATIONS:
                if candidate in child.value.replace("[", " ").split():
                    name = candidate
                    break
        if name in _UNCANONICAL_ANNOTATIONS:
            return name
    return None


#: Whole-program rule registry: code -> bound-method name on the analysis.
WHOLE_PROGRAM_RULES: Dict[str, str] = {
    "SIM008": "rule_sim008",
    "SIM009": "rule_sim009",
    "SIM010": "rule_sim010",
    "SIM011": "rule_sim011",
    "SIM012": "rule_sim012",
}


def rule_docstring(code: str) -> Optional[str]:
    """The rationale/example docstring of one whole-program rule."""
    method_name = WHOLE_PROGRAM_RULES.get(code)
    if method_name is None:
        return None
    return getattr(DataflowAnalysis, method_name).__doc__


def analyze_project(
    project: Project,
) -> Tuple[List[ProjectFinding], List[Tuple[str, float]]]:
    """Run every whole-program rule; returns (findings, per-rule timings)."""
    import time as _time  # host-side tooling; not simulation state

    analysis = DataflowAnalysis(project)
    findings: List[ProjectFinding] = []
    timings: List[Tuple[str, float]] = []
    for code in sorted(WHOLE_PROGRAM_RULES):
        started = _time.perf_counter()  # simlint: disable=SIM001
        rule = getattr(analysis, WHOLE_PROGRAM_RULES[code])
        findings.extend(rule())
        timings.append(
            (code, _time.perf_counter() - started)  # simlint: disable=SIM001
        )
    return findings, timings
