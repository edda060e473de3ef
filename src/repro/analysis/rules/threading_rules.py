"""Thread-safety rules: ``guarded-by``, ``lock-blocking``, ``fork-safety``.

**guarded-by** — the serving path documents which lock protects each
piece of shared state with an annotation on the attribute's defining
assignment::

    self._pending: Dict[int, _PendingRequest] = {}  # guarded-by: _lock

Within the modules listed in
:data:`repro.analysis.project.GUARDED_MODULES`, every ``self.<attr>``
access to an annotated attribute must sit lexically inside
``with self.<lock>:`` for the declared lock.  Exemptions, by
convention: ``__init__``/``__post_init__`` (no concurrent readers yet)
and methods whose name ends in ``_locked`` (the caller holds the lock —
the suffix is the contract).  Nested ``def``/``lambda`` bodies do *not*
inherit the enclosing ``with``: a closure outlives the critical section
that created it.

**lock-blocking** — while any lock is held (a ``with`` over an
expression whose name contains ``lock``), calls that can block
indefinitely are errors: ``time.sleep``, zero-argument ``.join()`` /
``.wait()`` / ``.get()`` / ``.result()`` (no timeout).  A bounded wait
(``.join(timeout=...)``) is fine.

**fork-safety** — in the modules listed in
:data:`repro.analysis.project.FORK_SAFE_MODULES` (code that runs inside
forked shard workers), no lock, RNG, queue, or mutable cache may be
created at import time: such state is instantiated once in the parent
and captured pre-fork into every child, where a copied lock can be held
by a thread that no longer exists, a duplicated RNG stream breaks shard
independence, and a shared-looking cache silently diverges per process.
Flagged at module and class-body level: synchronisation-primitive and
queue constructors, RNG constructors/seeding (``default_rng``,
``RandomState``, ``random.Random``, ``random.seed``), memoising
decorators (``lru_cache``/``cache``), and empty mutable container
literals (a module-level ``{}`` is a cache waiting to happen).  Mutable
state belongs on instances built *after* the fork.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.engine import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.project import is_fork_safe_module, is_guarded_module
from repro.analysis.registry import RULE_REGISTRY

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?:self\.)?(\w+)")

#: Methods whose bodies are exempt from the guarded-by check.
_EXEMPT_METHODS = ("__init__", "__post_init__")


def _guarded_by_on_line(ctx: ModuleContext, lineno: int) -> Optional[str]:
    lines = ctx.source.splitlines()
    if 1 <= lineno <= len(lines):
        m = _GUARDED_BY_RE.search(lines[lineno - 1])
        if m is not None:
            return m.group(1)
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """The ``attr`` of a ``self.<attr>`` expression, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_guarded_attrs(
    ctx: ModuleContext, cls: ast.ClassDef
) -> Dict[str, str]:
    """attr name -> lock name, from annotated defining assignments.

    Both styles are recognised: ``self._x = ...`` inside a method and a
    dataclass-style class-level ``_x: T = field(...)`` declaration.
    """
    guarded: Dict[str, str] = {}
    for node in ast.walk(cls):
        lock: Optional[str] = None
        attr: Optional[str] = None
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Name):
                    # class-level dataclass field
                    parent = ctx.parent(node)
                    attr = target.id if parent is cls else None
                if attr is not None:
                    break
            if attr is not None:
                lock = _guarded_by_on_line(ctx, node.lineno)
        if attr is not None and lock is not None:
            guarded[attr] = lock
    return guarded


def _with_locks(node: ast.With, known_locks: FrozenSet[str]) -> FrozenSet[str]:
    """Lock names acquired by one ``with`` statement."""
    held: List[str] = []
    for item in node.items:
        expr = item.context_expr
        attr = _self_attr(expr)
        name = attr if attr is not None else (
            expr.id if isinstance(expr, ast.Name) else None
        )
        if name is not None and (name in known_locks or "lock" in name.lower()):
            held.append(name)
    return frozenset(held)


def _iter_method_findings(
    ctx: ModuleContext,
    cls: ast.ClassDef,
    fn: ast.FunctionDef,
    guarded: Dict[str, str],
    known_locks: FrozenSet[str],
) -> Iterator[Finding]:
    def walk(node: ast.AST, held: FrozenSet[str]) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if node is not fn:
                # A closure runs later, outside this critical section.
                for child in ast.iter_child_nodes(node):
                    yield from walk(child, frozenset())
                return
        if isinstance(node, ast.With):
            held = held | _with_locks(node, known_locks)
        attr = _self_attr(node)
        if attr is not None and attr in guarded and guarded[attr] not in held:
            yield ctx.finding(
                "guarded-by",
                node,
                (
                    f"{cls.name}.{attr} is guarded by "
                    f"self.{guarded[attr]} but accessed outside it "
                    f"(in {fn.name}); hold the lock or move the access "
                    "into a *_locked helper"
                ),
            )
        for child in ast.iter_child_nodes(node):
            yield from walk(child, held)

    yield from walk(fn, frozenset())


@RULE_REGISTRY.register(
    "guarded-by",
    "annotated shared attribute accessed without its declared lock",
)
def check_guarded_by(ctx: ModuleContext) -> Iterable[Finding]:
    if not is_guarded_module(ctx.relpath):
        return
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        guarded = _collect_guarded_attrs(ctx, cls)
        if not guarded:
            continue
        known_locks = frozenset(guarded.values())
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in _EXEMPT_METHODS or fn.name.endswith("_locked"):
                continue
            yield from _iter_method_findings(
                ctx, cls, fn, guarded, known_locks  # type: ignore[arg-type]
            )


# ----------------------------------------------------------------------
# lock-blocking
# ----------------------------------------------------------------------
def _has_timeout(call: ast.Call) -> bool:
    if call.args:
        return True  # positional timeout (join(5.0), wait(0.1))
    return any(kw.arg in ("timeout", "timeout_s") for kw in call.keywords)


def _is_nonblocking_get(call: ast.Call) -> bool:
    if call.args:
        return True  # dict.get(key, ...) / get(block, timeout)
    for kw in call.keywords:
        if kw.arg == "timeout":
            return True
        if kw.arg == "block" and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        recv = func.value
        if isinstance(recv, ast.Name) and recv.id == "time" and func.attr == "sleep":
            return "time.sleep() while a lock is held"
        if func.attr == "join" and not _has_timeout(call):
            return ".join() without a timeout while a lock is held"
        if func.attr == "wait" and not _has_timeout(call):
            return ".wait() without a timeout while a lock is held"
        if func.attr == "get" and not _is_nonblocking_get(call):
            return ".get() without a timeout while a lock is held"
        if func.attr == "result" and not _has_timeout(call):
            return ".result() without a timeout while a lock is held"
    return None


@RULE_REGISTRY.register(
    "lock-blocking",
    "indefinitely-blocking call inside a lock-protected region",
)
def check_lock_blocking(ctx: ModuleContext) -> Iterable[Finding]:
    def walk(node: ast.AST, held: bool) -> Iterator[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # A callable body runs when called, not where it is defined.
            for child in ast.iter_child_nodes(node):
                yield from walk(child, False)
            return
        if isinstance(node, ast.With) and _with_locks(node, frozenset()):
            held = True
        if held and isinstance(node, ast.Call):
            reason = _blocking_reason(node)
            if reason is not None:
                yield ctx.finding("lock-blocking", node, reason)
        for child in ast.iter_child_nodes(node):
            yield from walk(child, held)

    for top in ctx.tree.body:
        yield from walk(top, False)


# ----------------------------------------------------------------------
# fork-safety
# ----------------------------------------------------------------------
#: Constructor names whose import-time instantiation is a fork hazard.
_FORK_HOSTILE_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "Queue", "SimpleQueue", "LifoQueue", "PriorityQueue",
    "default_rng", "RandomState", "Random", "Generator",
    "OrderedDict", "defaultdict", "deque", "Counter",
})

#: Call names that seed or memoise at import time.
_FORK_HOSTILE_CALLS: FrozenSet[str] = frozenset({"seed", "lru_cache", "cache"})


def _call_name(node: ast.AST) -> Optional[str]:
    """Trailing name of a ``Call``'s callee (``threading.Lock`` → Lock)."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _fork_hazard(node: ast.expr) -> Optional[str]:
    """Why an import-time value expression is fork-hostile, else None."""
    name = _call_name(node)
    if name in _FORK_HOSTILE_CONSTRUCTORS:
        return f"{name}() instantiated at import time"
    if name in _FORK_HOSTILE_CALLS:
        return f"{name}() called at import time"
    if (
        name in ("dict", "list", "set")
        and isinstance(node, ast.Call)
        and not node.args
        and not node.keywords
    ):
        return f"empty mutable {name}() at import time"
    if isinstance(node, (ast.Dict, ast.List, ast.Set)) and not (
        node.keys if isinstance(node, ast.Dict) else node.elts
    ):
        literal = {ast.Dict: "{}", ast.List: "[]", ast.Set: "set()"}[type(node)]
        return f"empty mutable {literal} at import time"
    return None


@RULE_REGISTRY.register(
    "fork-safety",
    "import-time lock/RNG/cache state in a module forked into shards",
)
def check_fork_safety(ctx: ModuleContext) -> Iterable[Finding]:
    if not is_fork_safe_module(ctx.relpath):
        return
    # Module body plus class bodies: both execute at import time, in the
    # parent, before any shard is forked.
    scopes: List[ast.AST] = [ctx.tree]
    scopes.extend(n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef))
    for scope in scopes:
        body = scope.body  # type: ignore[attr-defined]
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in stmt.decorator_list:
                    name = _call_name(deco) or (
                        deco.attr if isinstance(deco, ast.Attribute)
                        else deco.id if isinstance(deco, ast.Name) else None
                    )
                    if name in _FORK_HOSTILE_CALLS:
                        yield ctx.finding(
                            "fork-safety",
                            deco,
                            (
                                f"@{name} memoises in the parent process; "
                                "every forked shard inherits (then forks "
                                "away from) that cache — memoise on a "
                                "post-fork instance instead"
                            ),
                        )
                continue
            values: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                values = [stmt.value]
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                values = [stmt.value]
            elif isinstance(stmt, ast.Expr):
                values = [stmt.value]
            for value in values:
                for node in ast.walk(value):
                    if not isinstance(node, ast.expr):
                        continue
                    reason = _fork_hazard(node)
                    if reason is not None:
                        yield ctx.finding(
                            "fork-safety",
                            node,
                            (
                                f"{reason} in a module forked into shard "
                                "processes: the state is captured pre-fork "
                                "(a copied lock may be held by a thread "
                                "that does not exist in the child, an RNG "
                                "stream duplicates across shards) — build "
                                "it after the fork, in __init__"
                            ),
                        )
