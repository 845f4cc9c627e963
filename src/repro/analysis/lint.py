"""``bcache-lint`` — AST lint pass with simulator-specific rules.

Generic linters cannot know that ``int(math.log2(...))`` silently
truncates a cache geometry, or that a batch kernel must not allocate
per reference.  This pass encodes the repo's conventions that neither
the tests nor the APIs enforce as machine-checked rules:

========  =============================================================
code      rule
========  =============================================================
BCL003    hot-path dataclasses must declare ``slots=True``
BCL004    geometry parameters must be validated via ``log2_exact`` —
          no bare ``int(math.log2(...))``, no ``math.log2`` in
          ``caches``/``core`` modules
BCL005    no unseeded ``random`` usage anywhere in ``src/repro/``
          (module-level ``random.*`` calls, seedless ``Random()``)
BCL007    no mutable default arguments
BCL009    batch kernels (``access_trace`` / ``_batch_trace``) must stay
          allocation-free: no ``AccessResult(...)`` call inside a
          ``for``/``while`` loop or comprehension of the kernel (nested
          defs included) — accumulate locals, bulk-update the stats once
BCL010    engine code (``repro.engine``) must not swallow failures or
          spin-retry: no bare ``except:``, no ``except Exception:
          pass``, and retry loops (``while``/``for range(...)`` with an
          except-and-continue) must back off via a sleep/delay call
BCL011    event-loop code (``repro.serve``) must not block the loop: no
          ``time.sleep``, synchronous file I/O (``open``,
          ``read_text``/``write_text``/…) or ``Future.result()``
          inside a coroutine — await, or offload via
          ``run_in_executor``
BCL014    fork-safety: a function that runs in a worker process (a
          known entry point, a ``Process(target=)``, the callable handed
          to ``submit``/``apply_async`` or to a pool's ``map``/``imap``/
          ``imap_unordered``/``starmap``, or an ``initializer=``) must
          not mutate module-level mutable state, directly or through
          same-module callees two calls deep; and (serve) no
          ``create_task``/``ensure_future`` whose reference is dropped
          (task leak)
BCL016    columnar discipline: no ``Access`` object construction
          inside a batch-kernel loop (kernels consume address/kind
          columns directly)
BCL019    trace propagation discipline: spans opened inside serve
          coroutines (``span``/``stage_span``/``stage_event``)
          must thread the request context via ``trace=`` (an
          ambient-only span silently detaches from its waterfall the
          moment a task boundary drops the contextvar), and trace ids
          must never be minted from clocks or randomness
          (``time.*``/``random.*``/``uuid4``/``urandom``/…) — a worker
          that mints a nondeterministic id orphans its spans and breaks
          replay
========  =============================================================

Every rule is a syntactic check made in one walk over the module's
AST (see ``docs/analysis.md``).

A violation on a line containing ``# noqa: BCLxxx`` (or a bare
``# noqa``) is suppressed; the repo itself is expected to stay clean
(see ``tests/test_lint.py::test_repo_is_lint_clean``).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

#: One-line summary per rule (``bcache-lint --list-rules``).
RULES: dict[str, str] = {
    "BCL003": "hot-path dataclass must declare slots=True",
    "BCL004": "validate geometry via log2_exact, not int(math.log2(...))",
    "BCL005": "unseeded random usage (module-level random.* / Random())",
    "BCL007": "mutable default argument",
    "BCL009": "AccessResult allocation inside a batch-kernel loop",
    "BCL010": "engine code swallows exceptions or retries without backoff",
    "BCL011": "blocking call (time.sleep / sync file I/O / Future.result) "
    "inside a serve coroutine",
    "BCL014": "fork-safety hazard: worker-reachable module state mutation, "
    "or dropped create_task",
    "BCL016": "Access object built in a batch-kernel loop",
    "BCL019": "trace discipline: span/stage_span/stage_event in a serve "
    "coroutine without trace=, or a trace id minted from clock/randomness",
}

#: Sub-packages of ``repro`` whose code runs once per simulated access.
HOT_PACKAGES = frozenset(
    {"caches", "core", "trace", "hierarchy", "replacement", "stats"}
)

#: Sub-packages holding the fault-tolerant engine: failure handling
#: there must be explicit (BCL010) — a swallowed exception is a lost
#: worker, a sleepless retry loop is a busy-wait against a dead pool.
ENGINE_PACKAGES = frozenset({"engine"})

#: Call names that count as backing off inside a retry loop.
BACKOFF_CALLS = frozenset({"sleep", "delay", "backoff", "wait"})

#: Sub-packages running on an asyncio event loop: a blocking call in a
#: coroutine there stalls every connection at once (BCL011).
SERVE_PACKAGES = frozenset({"serve"})

#: Method calls that do synchronous file I/O when issued on a ``Path``
#: (or file object) inside a coroutine.
BLOCKING_IO_METHODS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: Span-opening observability calls.  BCL019: inside serve coroutines
#: each must thread the request's TraceContext explicitly —
#: relying on the ambient contextvar detaches the span from its
#: waterfall as soon as a task boundary drops the context.
TRACE_SPAN_CALLS = frozenset({"span", "stage_span", "stage_event"})

#: Nondeterministic sources banned from trace-id minting (BCL019);
#: ``time.*`` and ``random.*`` attribute calls are banned wholesale.
NONDET_TRACE_SOURCES = frozenset(
    {"uuid4", "urandom", "token_hex", "token_bytes", "getrandbits",
     "randbytes"}
)

#: Modules where ``math.log2`` itself is banned (geometry must go
#: through ``log2_exact``); the energy models legitimately need floats.
GEOMETRY_PACKAGES = frozenset({"caches", "core"})

#: The batch fast path: these bodies are the per-reference hot loop and
#: must not allocate one result object per access (BCL009).
BATCH_FUNCS = frozenset({"access_trace", "_batch_trace"})

#: Known process-boundary entry points (engine/serve workers) — BCL014.
ENTRY_POINT_NAMES = frozenset({"execute_job", "_worker_entry"})

#: Calls whose first argument runs in a worker process (BCL014):
#: executor/pool submission, and a pool's ``map`` family (as a method;
#: the builtin ``map`` runs in-process).
SUBMIT_CALLS = frozenset({"submit", "apply_async"})
POOL_MAP_METHODS = frozenset({"map", "imap", "imap_unordered", "starmap"})

#: Module-level containers BCL014 treats as shared mutable state.
MUTABLE_DISPLAYS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp
)
MUTABLE_CTORS = frozenset(
    {"list", "dict", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
)

#: Method calls that mutate a container in place (BCL014).
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "insert",
        "extend",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "sort",
        "reverse",
        "move_to_end",
    }
)

#: ``random.<fn>()`` calls that use the shared, unseeded global state.
RANDOM_MODULE_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "expovariate",
        "betavariate",
        "paretovariate",
        "seed",
        "getrandbits",
    }
)

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True, slots=True)
class Violation:
    """One lint finding, renderable as ``path:line: CODE message``."""

    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


def _call_name(node: ast.Call) -> str:
    """The called name: ``f(...)`` → ``f``, ``obj.m(...)`` → ``m``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _module_segments(path: str) -> tuple[str, ...]:
    """Path components below the ``repro`` package (empty if outside)."""
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return parts[i + 1 :]
    return ()


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator, if present."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name == "dataclass":
            return deco
    return None


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"list", "dict", "set", "bytearray"}
    return False


# -- BCL014 helpers: module state reachable from a worker --------------
def _module_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Every module-level def and every method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield sub


def _module_mutables(tree: ast.Module) -> set[str]:
    """Module-level names bound to mutable containers."""
    mutables: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        if value is None:
            continue
        if isinstance(value, MUTABLE_DISPLAYS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in MUTABLE_CTORS
        ):
            mutables.update(t.id for t in targets if isinstance(t, ast.Name))
    return mutables


def _entry_points(tree: ast.Module) -> dict[str, str]:
    """Function name -> why it runs in a worker process."""
    entries = {
        fn.name: "worker entry point"
        for fn in _module_functions(tree)
        if fn.name in ENTRY_POINT_NAMES
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _call_name(node)
        for kw in node.keywords:
            if isinstance(kw.value, ast.Name):
                if kw.arg == "target" and callee == "Process":
                    entries.setdefault(kw.value.id, "Process target")
                elif kw.arg == "initializer":
                    entries.setdefault(kw.value.id, "pool initializer")
        first = node.args[0] if node.args else None
        if not isinstance(first, ast.Name):
            continue
        if callee in SUBMIT_CALLS or (
            callee in POOL_MAP_METHODS and isinstance(node.func, ast.Attribute)
        ):
            entries.setdefault(first.id, f"{callee}() callable")
    return entries


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _mutations_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, mutables: set[str]
) -> Iterator[tuple[int, str]]:
    """(line, name) for each mutation of a module-level container.

    A name the function binds locally shadows the module's, unless the
    function declares it ``global``.
    """
    args = fn.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    bound.update(a.arg for a in (args.vararg, args.kwarg) if a is not None)
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    visible = mutables - (bound - declared_global)
    if not visible:
        return
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root in visible:
                        yield node.lineno, root
                elif isinstance(target, ast.Name) and target.id in (
                    declared_global & mutables
                ):
                    yield node.lineno, target.id
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATOR_METHODS
        ):
            root = _root_name(node.func.value)
            if root in visible:
                yield node.lineno, root


class _Linter(ast.NodeVisitor):
    """Single-pass visitor collecting all rule violations for one file."""

    def __init__(self, path: str, segments: tuple[str, ...]) -> None:
        self.path = path
        self.hot = bool(segments) and segments[0] in HOT_PACKAGES
        self.geometry_module = bool(segments) and segments[0] in GEOMETRY_PACKAGES
        self.engine_module = bool(segments) and segments[0] in ENGINE_PACKAGES
        self.serve_module = bool(segments) and segments[0] in SERVE_PACKAGES
        self.violations: list[Violation] = []
        self._func_stack: list[str] = []
        self._async_stack: list[bool] = []  # "is coroutine" per frame
        self._awaited_calls: set[ast.Call] = set()
        self._loop_depth = 0  # loops inside the current function body

    # -- helpers -------------------------------------------------------
    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, getattr(node, "lineno", 0), code, message)
        )

    @property
    def _in_batch_func(self) -> bool:
        return any(name in BATCH_FUNCS for name in self._func_stack)

    @property
    def _in_coroutine(self) -> bool:
        """Is the nearest enclosing function frame an ``async def``?

        A plain nested ``def`` inside a coroutine is *not* a coroutine
        frame — it typically runs in an executor thread, where blocking
        is the whole point.
        """
        return bool(self._async_stack) and self._async_stack[-1]

    # -- classes -------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        deco = _dataclass_decorator(node)
        if deco is not None and self.hot:
            has_slots = isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            )
            if not has_slots:
                self._add(
                    node,
                    "BCL003",
                    f"hot-path dataclass {node.name!r} must declare slots=True",
                )

        self.generic_visit(node)

    # -- functions -----------------------------------------------------
    def _check_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if _is_mutable_literal(default):
                self._add(
                    default,
                    "BCL007",
                    f"mutable default argument in {node.name}()",
                )

        self._func_stack.append(node.name)
        self._async_stack.append(isinstance(node, ast.AsyncFunctionDef))
        enclosing_loops = self._loop_depth
        self._loop_depth = 0
        self.generic_visit(node)
        self._loop_depth = enclosing_loops
        self._async_stack.pop()
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    # -- module-wide (BCL014) ------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self.generic_visit(node)
        self._check_worker_state(node)

    def _check_worker_state(self, tree: ast.Module) -> None:
        """BCL014: a module-level container mutated by a function that
        runs in a worker — the entry point itself, or a same-module
        callee at most two calls below it.  Each worker mutates its own
        copy, so the parent never sees the write and workers diverge."""
        mutables = _module_mutables(tree)
        entries = _entry_points(tree)
        if not (mutables and entries):
            return
        functions = {fn.name: fn for fn in _module_functions(tree)}
        seen: set[tuple[int, str]] = set()
        for entry_name, reason in entries.items():
            entry_fn = functions.get(entry_name)
            if entry_fn is None:
                continue
            reachable = [entry_fn]
            frontier = [entry_fn]
            for _ in range(2):
                next_frontier = []
                for fn in frontier:
                    for sub in ast.walk(fn):
                        if (
                            isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id in functions
                        ):
                            callee = functions[sub.func.id]
                            if callee not in reachable:
                                reachable.append(callee)
                                next_frontier.append(callee)
                frontier = next_frontier
            for fn in reachable:
                for line, name in _mutations_of(fn, mutables):
                    message = (
                        f"module-level mutable {name!r} is mutated on a "
                        f"path reachable from process {reason} "
                        f"{entry_name!r}; state diverges across workers"
                    )
                    if (line, message) not in seen:
                        seen.add((line, message))
                        self.violations.append(
                            Violation(self.path, line, "BCL014", message)
                        )

    def visit_Expr(self, node: ast.Expr) -> None:
        # BCL014 (serve): a task whose reference is dropped can be
        # garbage-collected mid-flight, and its exception vanishes.
        value = node.value
        if (
            self.serve_module
            and isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("create_task", "ensure_future")
        ):
            self._add(
                node,
                "BCL014",
                f"fire-and-forget {value.func.attr}(): the task reference "
                "is dropped, so exceptions vanish and the task may be "
                "garbage-collected mid-flight",
            )
        self.generic_visit(node)

    # -- loops ---------------------------------------------------------
    def _visit_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        # Only counted ``for`` loops (``for _ in range(...)``) look like
        # retry loops; journal/line iteration legitimately continues on
        # bad records without sleeping.
        if (
            isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
        ):
            self._check_retry_loop(node)
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited_calls.add(node.value)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_retry_loop(node)
        self._visit_loop(node)

    def _check_retry_loop(self, node: ast.While | ast.For) -> None:
        """BCL010 (engine only): a loop that catches-and-continues must
        back off — a sleepless retry loop busy-waits against a failure
        that is not going away this microsecond."""
        if not self.engine_module:
            return
        retries = False
        backs_off = False
        for child in ast.walk(node):
            if isinstance(child, ast.ExceptHandler) and any(
                isinstance(sub, ast.Continue) for sub in ast.walk(child)
            ):
                retries = True
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else ""
                )
                if name in BACKOFF_CALLS:
                    backs_off = True
        if retries and not backs_off:
            self._add(
                node,
                "BCL010",
                "retry loop without backoff: call sleep/delay before "
                "retrying a failed operation",
            )

    # -- exception handling (BCL010, engine only) ----------------------
    @staticmethod
    def _handler_type_names(node: ast.ExceptHandler) -> list[str]:
        """Exception class names a handler catches (empty for bare)."""
        if node.type is None:
            return []
        exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = []
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.append(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.append(expr.attr)
        return names

    @staticmethod
    def _is_noop_body(body: list[ast.stmt]) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in body
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.engine_module:
            if node.type is None:
                self._add(
                    node,
                    "BCL010",
                    "bare except: hides worker failures; catch specific "
                    "exception types (contextlib.suppress for expected ones)",
                )
            elif any(
                name in {"Exception", "BaseException"}
                for name in self._handler_type_names(node)
            ) and self._is_noop_body(node.body):
                self._add(
                    node,
                    "BCL010",
                    "except Exception: pass swallows failures silently; "
                    "log, retry with backoff, or re-raise",
                )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_loop(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_loop(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_loop(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_loop(node)

    # -- expressions ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func

        # BCL004: int(math.log2(...)) truncates silently on non-powers
        # of two; log2_exact raises instead.
        if (
            isinstance(func, ast.Name)
            and func.id == "int"
            and len(node.args) == 1
            and self._is_log2_call(node.args[0])
        ):
            self._add(
                node,
                "BCL004",
                "use log2_exact(value, what) instead of int(math.log2(...))",
            )
        elif self.geometry_module and self._is_log2_call(node):
            self._add(
                node,
                "BCL004",
                "math.log2 in a geometry module; use log2_exact",
            )

        # BCL005: the module-level random API draws from one shared,
        # unseeded generator — irreproducible simulations.
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id == "random" and func.attr in RANDOM_MODULE_FUNCS:
                self._add(
                    node,
                    "BCL005",
                    f"random.{func.attr}() uses the unseeded global generator; "
                    "pass an explicit random.Random(seed)",
                )
            if (
                func.value.id == "random"
                and func.attr == "Random"
                and not node.args
                and not node.keywords
            ):
                self._add(
                    node,
                    "BCL005",
                    "random.Random() without a seed is irreproducible",
                )
        if (
            isinstance(func, ast.Name)
            and func.id in {"Random", "SystemRandom"}
            and not node.args
            and not node.keywords
        ):
            self._add(
                node, "BCL005", f"{func.id}() without a seed is irreproducible"
            )

        name = _call_name(node)

        # BCL019 (a): a span opened on the request path must carry the
        # request's TraceContext explicitly.  The ambient contextvar is
        # a convenience, not a guarantee — create_task / executor hops
        # drop it, and the span lands parentless in the event log.
        if (
            self.serve_module
            and self._in_coroutine
            and name in TRACE_SPAN_CALLS
            and not any(kw.arg == "trace" for kw in node.keywords)
        ):
            self._add(
                node,
                "BCL019",
                f"{name}(...) in a serve coroutine must thread the "
                "request context explicitly (trace=...); ambient context "
                "does not survive task boundaries",
            )

        # BCL019 (b): trace identity must be deterministic.  An id
        # minted from a clock or an entropy source cannot be re-derived
        # on replay, and a worker minting its own id (instead of
        # deriving from the propagated parent) orphans its spans.
        is_mint = name == "mint_trace_id" or (
            isinstance(func, ast.Attribute)
            and func.attr == "new"
            and isinstance(func.value, ast.Name)
            and func.value.id == "TraceContext"
        )
        if is_mint:
            culprit = self._nondet_trace_arg(node)
            if culprit:
                self._add(
                    node,
                    "BCL019",
                    f"trace id minted from {culprit}; derive it from a "
                    "deterministic request key (client id / ordinal / "
                    "propagated parent), never from clocks or randomness",
                )

        # BCL009: one frozen AccessResult per reference is the cost the
        # batch kernels exist to avoid.
        if (
            isinstance(func, ast.Name)
            and func.id == "AccessResult"
            and self._in_batch_func
            and self._loop_depth > 0
        ):
            self._add(
                node,
                "BCL009",
                "AccessResult allocated per access inside a batch kernel "
                "loop; accumulate local counters instead",
            )

        # BCL016: the columnar refactor's contract.  Batch kernels flow
        # flat address/kind columns straight from the trace store; one
        # Access object per reference would resurrect the allocation
        # cost the columnar core removed.
        if name == "Access" and self._in_batch_func and self._loop_depth > 0:
            self._add(
                node,
                "BCL016",
                "Access object built inside a batch-kernel loop; columnar "
                "kernels consume address/kind columns directly",
            )

        # BCL011: serve coroutines share one event loop; a single
        # blocking call there stalls every connection.  Blocking work
        # belongs in an executor (see ShardPool's shard-io threads).
        if self.serve_module and self._in_coroutine:
            self._check_blocking_call(node)

        self.generic_visit(node)

    def _check_blocking_call(self, node: ast.Call) -> None:
        """BCL011: blocking primitives inside a serve coroutine."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            self._add(
                node,
                "BCL011",
                "open() blocks the event loop; offload file I/O via "
                "loop.run_in_executor",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "time"
            and func.attr == "sleep"
        ):
            self._add(
                node,
                "BCL011",
                "time.sleep() blocks the event loop; use await asyncio.sleep",
            )
        elif func.attr in BLOCKING_IO_METHODS:
            self._add(
                node,
                "BCL011",
                f".{func.attr}() does synchronous file I/O in a coroutine; "
                "offload via loop.run_in_executor",
            )
        elif func.attr == "result" and not self._is_awaited(node):
            self._add(
                node,
                "BCL011",
                ".result() blocks the event loop waiting on a future; "
                "await the future (or run_in_executor) instead",
            )

    def _is_awaited(self, node: ast.Call) -> bool:
        return node in self._awaited_calls

    @staticmethod
    def _nondet_trace_arg(node: ast.Call) -> str:
        """BCL019: describe a nondeterministic mint source, or ``""``.

        The whole argument subtree is walked: ``f"gw/{time.time()}"``
        hides the clock one level down.
        """
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for sub in ast.walk(arg):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if isinstance(func, ast.Attribute):
                    base = (
                        func.value.id
                        if isinstance(func.value, ast.Name)
                        else ""
                    )
                    if base in {"time", "random"}:
                        return f"{base}.{func.attr}()"
                    if func.attr in NONDET_TRACE_SOURCES:
                        return f"{func.attr}()"
                elif (
                    isinstance(func, ast.Name)
                    and func.id in NONDET_TRACE_SOURCES
                ):
                    return f"{func.id}()"
        return ""

    @staticmethod
    def _is_log2_call(node: ast.expr) -> bool:
        """Is ``node`` a call ``math.log2(...)``?"""
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "math"
            and func.attr == "log2"
        )


def _noqa_codes(source: str) -> dict[int, set[str] | None]:
    """Map line number -> suppressed codes (None = suppress all)."""
    suppressed: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressed[lineno] = None
        else:
            suppressed[lineno] = {c.strip().upper() for c in codes.split(",")}
    return suppressed


def lint_source(source: str, path: str = "<string>") -> list[Violation]:
    """Lint one module's source text; ``path`` drives path-scoped rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path, exc.lineno or 0, "BCL000", f"syntax error: {exc.msg}")]
    segments = _module_segments(path)
    linter = _Linter(path, segments)
    linter.visit(tree)
    suppressed = _noqa_codes(source)
    kept = []
    for violation in linter.violations:
        codes = suppressed.get(violation.line, set())
        if codes is None or (codes and violation.code in codes):
            continue
        kept.append(violation)
    return sorted(kept, key=lambda v: (v.path, v.line, v.code))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(
                p
                for p in entry.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield entry


def lint_file(path: str | Path) -> list[Violation]:
    """Lint one file."""
    return lint_source(Path(path).read_text(encoding="utf-8"), str(path))


def lint_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Lint every python file under ``paths``; returns all violations."""
    violations: list[Violation] = []
    for file in iter_python_files(paths):
        violations.extend(lint_file(file))
    return violations


# ----------------------------------------------------------------------
# Output formats
# ----------------------------------------------------------------------
def render_json(violations: list[Violation]) -> str:
    rows = [
        {
            "path": v.path,
            "line": v.line,
            "code": v.code,
            "message": v.message,
        }
        for v in violations
    ]
    return json.dumps(rows, indent=2)


def render_sarif(violations: list[Violation]) -> str:
    """SARIF 2.1.0, as consumed by GitHub code scanning."""
    rules = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": "error"},
        }
        for code, summary in sorted(RULES.items())
    ]
    results = [
        {
            "ruleId": v.code,
            "level": "error",
            "message": {"text": v.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": v.path.replace(os.sep, "/"),
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": max(v.line, 1)},
                    }
                }
            ],
        }
        for v in violations
    ]
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "bcache-lint",
                        "informationUri": "https://example.invalid/bcache-lint",
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": "file:///"}
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``bcache-lint``; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="bcache-lint",
        description="Simulator-specific lint pass for the B-Cache reproduction.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"bcache-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    violations = lint_paths(args.paths)
    violations.sort(key=lambda v: (v.path, v.line, v.code))
    checked = sum(1 for _ in iter_python_files(args.paths))
    if args.format == "json":
        print(render_json(violations))
    elif args.format == "sarif":
        print(render_sarif(violations))
    else:
        for violation in violations:
            print(violation.render())
        if violations:
            print(
                f"bcache-lint: {len(violations)} violation(s) in "
                f"{checked} file(s)"
            )
        else:
            print(f"bcache-lint: OK ({checked} files clean)")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
