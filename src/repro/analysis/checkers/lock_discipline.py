"""Lock-discipline checker: the scheduler/store concurrency invariants.

The convention (see RULES.md):

* ``self._lock = threading.Lock()`` in ``__init__`` declares a lock attribute;
  ``self._cond = threading.Condition(self._lock)`` declares a condition that
  *aliases* that lock (acquiring either means holding the one underlying
  lock).
* ``# guarded-by: _lock`` trailing a ``self.attr = ...`` assignment in
  ``__init__`` declares the attribute accessible only while ``_lock`` is held.
* ``# holds: _lock`` trailing a ``def`` line asserts the method is only
  entered with ``_lock`` already held; call sites are checked for it.

Rules:

``lock-guarded-attr``
    A guarded attribute is read or written outside a ``with self._lock``
    block (and outside a ``# holds:`` method).  ``__init__`` is exempt — the
    object is not shared yet.
``lock-holds-caller``
    A ``# holds: _lock`` method is called without the lock held.
``lock-wait-while``
    ``Condition.wait`` outside a ``while`` predicate loop — the spurious-
    wakeup hazard: a woken thread must re-check its predicate.
    (``wait_for`` re-checks internally and is always fine.)
``lock-io-held``
    Model generation (``generate``/``generate_batch``) or store-tier I/O
    (``*store*.get``/``*store*.put``) issued while a lock is held.  Lock
    hold times must be bounded by memory operations, never by model or disk
    latency; the caller-as-leader drain in ``scheduler.py`` is the motivating
    hazard.
``lock-await-held``
    ``await`` while a lock is held.  An ``await`` suspends the coroutine
    mid-critical-section for an unbounded time — with a *threading* lock
    that stalls every thread contending for it (and deadlocks outright if
    the awaited work needs the same lock); the asyncio/scheduler bridge in
    the service layer is the motivating hazard.

The analysis is lexical and per-class: it tracks ``with self.<lock>`` blocks
inside each method body (nested functions conservatively start with no locks
held).  It does not chase aliases of ``self`` or cross-object locks — the
annotations mark exactly the invariants the scheduler and store rely on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.base import (
    Checker,
    Finding,
    SourceFile,
    call_name,
    dotted_name,
    register,
    self_attribute,
)

#: Constructor names that create a lock-like object.
_LOCK_FACTORIES = {"Lock", "RLock"}
#: Lock factories whose locks may be re-acquired by the holding thread.
_REENTRANT_FACTORIES = {"RLock"}
#: Constructor names that create a condition (wrapping a lock).
_CONDITION_FACTORIES = {"Condition"}
#: Attribute call names that reach the model (never valid under a lock).
_MODEL_CALLS = {"generate", "generate_batch"}
#: Store-tier call names (checked when the receiver mentions a store).
_STORE_CALLS = {"get", "put", "put_many"}


@dataclass
class _ClassLocks:
    """Lock layout of one class, harvested from ``__init__``."""

    locks: set[str] = field(default_factory=set)
    #: Lock attrs built from ``threading.RLock()``: re-acquiring one while
    #: it is already held is legal (reentrant), never a self-deadlock.
    reentrant: set[str] = field(default_factory=set)
    #: lock attr -> line of the factory call in ``__init__`` (the line a
    #: runtime-instrumented lock reports as its creation site).
    decl_lines: dict[str, int] = field(default_factory=dict)
    #: condition attr -> underlying lock attr (itself, when standalone).
    conditions: dict[str, str] = field(default_factory=dict)
    #: guarded attr -> lock attr named by its ``# guarded-by:`` annotation.
    guarded: dict[str, str] = field(default_factory=dict)
    #: method name -> lock attr named by its ``# holds:`` annotation.
    holds_methods: dict[str, str] = field(default_factory=dict)

    def base(self, attr: str) -> str:
        """Resolve a condition alias to its underlying lock attribute."""
        return self.conditions.get(attr, attr)

    def is_lock_like(self, attr: str) -> bool:
        return attr in self.locks or attr in self.conditions

    def is_reentrant(self, attr: str) -> bool:
        """Whether re-acquiring ``attr`` while held is legal (an RLock)."""
        return self.base(attr) in self.reentrant


def _harvest(cls: ast.ClassDef, source: SourceFile) -> _ClassLocks:
    layout = _ClassLocks()
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held = source.holds_lock(node.lineno)
        if held is not None:
            layout.holds_methods[node.name] = held
        if node.name != "__init__":
            continue
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            attrs = [a for a in map(self_attribute, targets) if a is not None]
            if not attrs:
                continue
            if isinstance(value, ast.Call):
                name = call_name(value).rsplit(".", maxsplit=1)[-1]
                if name in _LOCK_FACTORIES:
                    layout.locks.update(attrs)
                    if name in _REENTRANT_FACTORIES:
                        layout.reentrant.update(attrs)
                    for attr in attrs:
                        layout.decl_lines[attr] = value.lineno
                elif name in _CONDITION_FACTORIES:
                    wrapped = None
                    if value.args:
                        inner = self_attribute(value.args[0])
                        if inner is not None and inner in layout.locks:
                            wrapped = inner
                    for attr in attrs:
                        layout.conditions[attr] = wrapped or attr
            # The annotation may trail the assignment or sit on its own
            # line immediately above (long assignments).
            lock = source.guarded_lock(stmt.lineno) or source.guarded_lock(
                stmt.lineno - 1
            )
            if lock is not None:
                for attr in attrs:
                    layout.guarded[attr] = lock
    return layout


@register
class LockDisciplineChecker(Checker):
    name = "lock-discipline"
    description = (
        "guarded-by/holds lock annotations, Condition.wait predicate loops, "
        "and no model/store I/O while a lock is held"
    )
    rules = (
        "lock-guarded-attr",
        "lock-holds-caller",
        "lock-wait-while",
        "lock-io-held",
        "lock-await-held",
    )

    def check(self, tree: ast.Module, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, source)

    def _check_class(
        self, cls: ast.ClassDef, source: SourceFile
    ) -> Iterator[Finding]:
        layout = _harvest(cls, source)
        if not (layout.locks or layout.conditions):
            return
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "__init__":
                continue
            held: frozenset[str] = frozenset()
            precondition = layout.holds_methods.get(node.name)
            if precondition is not None:
                held = frozenset({layout.base(precondition)})
            walker = _MethodWalker(layout, source)
            walker.walk_body(node.body, held, in_while=False)
            yield from walker.findings


class _MethodWalker:
    """Lexical walk of one method body tracking the held-lock set."""

    def __init__(self, layout: _ClassLocks, source: SourceFile) -> None:
        self.layout = layout
        self.source = source
        self.findings: list[Finding] = []

    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                message=message,
                path=self.source.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
            )
        )

    # ------------------------------------------------------------- traversal
    def walk_body(
        self, body: list[ast.stmt], held: frozenset[str], in_while: bool
    ) -> None:
        for stmt in body:
            self.walk(stmt, held, in_while)

    def walk(self, node: ast.AST, held: frozenset[str], in_while: bool) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in node.items:
                attr = self_attribute(item.context_expr)
                if attr is not None and self.layout.is_lock_like(attr):
                    acquired.add(self.layout.base(attr))
                else:
                    self.walk(item.context_expr, held, in_while)
            self.walk_body(node.body, frozenset(acquired), in_while)
            return
        if isinstance(node, ast.While):
            self.walk(node.test, held, in_while)
            self.walk_body(node.body, held, in_while=True)
            self.walk_body(node.orelse, held, in_while)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A nested callable may run later, on any thread: assume no lock.
            body = node.body if isinstance(node.body, list) else [node.body]
            self.walk_body(body, frozenset(), in_while=False)
            return
        if isinstance(node, ast.Await):
            # lock-await-held: suspending a coroutine mid-critical-section
            # parks the lock for as long as the awaited work takes.
            if held:
                self._finding(
                    "lock-await-held",
                    node,
                    f"'await' while holding {sorted(held)}: the coroutine "
                    "suspends mid-critical-section and the lock stays held "
                    "for the awaited work's full duration (resolve the "
                    "future outside the lock instead)",
                )
            self.walk(node.value, held, in_while)
            return
        if isinstance(node, ast.Call):
            self._check_call(node, held, in_while)
            for child in ast.iter_child_nodes(node):
                self.walk(child, held, in_while)
            return
        if isinstance(node, ast.Attribute):
            self._check_attribute(node, held)
        for child in ast.iter_child_nodes(node):
            self.walk(child, held, in_while)

    # ---------------------------------------------------------------- checks
    def _check_attribute(self, node: ast.Attribute, held: frozenset[str]) -> None:
        attr = self_attribute(node)
        if attr is None or attr not in self.layout.guarded:
            return
        lock = self.layout.base(self.layout.guarded[attr])
        if lock not in held:
            self._finding(
                "lock-guarded-attr",
                node,
                f"attribute 'self.{attr}' is guarded by '{lock}' "
                f"(declared in __init__) but accessed without it held",
            )

    def _check_call(
        self, node: ast.Call, held: frozenset[str], in_while: bool
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # lock-wait-while: Condition.wait outside a while predicate loop.
        receiver_attr = self_attribute(func.value)
        if (
            func.attr == "wait"
            and receiver_attr is not None
            and receiver_attr in self.layout.conditions
            and not in_while
        ):
            self._finding(
                "lock-wait-while",
                node,
                f"'self.{receiver_attr}.wait()' outside a while loop: a "
                "spurious wakeup would skip the predicate re-check "
                "(wrap in 'while <predicate>:' or use wait_for)",
            )
        # lock-holds-caller: a # holds: method entered without the lock.
        method = func.attr
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and method in self.layout.holds_methods
        ):
            lock = self.layout.base(self.layout.holds_methods[method])
            if lock not in held:
                self._finding(
                    "lock-holds-caller",
                    node,
                    f"'self.{method}()' requires '{lock}' held "
                    f"(# holds: annotation) but the call site does not hold it",
                )
        # lock-io-held: model/store I/O with any lock held.
        if held:
            if method in _MODEL_CALLS:
                self._finding(
                    "lock-io-held",
                    node,
                    f"model call '.{method}()' while holding "
                    f"{sorted(held)}: generation latency must never extend "
                    "a lock hold",
                )
            elif method in _STORE_CALLS and "store" in dotted_name(func.value):
                self._finding(
                    "lock-io-held",
                    node,
                    f"store I/O '{dotted_name(func.value)}.{method}()' while "
                    f"holding {sorted(held)}: disk latency under a lock "
                    "stalls every other thread",
                )
