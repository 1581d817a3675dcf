"""Lock-discipline analyzer: per-class dataflow over ``self`` attributes.

For every class the analyzer answers two questions the concurrency
modules (``threadpool``, ``stage``, ``container``, ``service``,
``handlers``, ``obs``) otherwise answer only in review:

1. **Mixed access.**  Which ``self`` attributes are mutated inside
   ``with self._lock:`` blocks — and are those same attributes also
   mutated (or read) *outside* any lock in other methods?  A write that
   is sometimes guarded is a race unless something else provides the
   happens-before edge; a read of a locked-write attribute outside the
   lock is flagged at lower confidence (CPython makes single reads
   atomic, but torn multi-field snapshots are still possible).

2. **Lock ordering.**  Which locks does each method acquire while
   already holding another — directly, or transitively through
   ``self.method()`` calls?  If the class exhibits both (A→B) and
   (B→A) orders, two threads can deadlock; if a method can re-acquire
   a lock it already holds, a non-reentrant ``threading.Lock`` will
   deadlock against itself.

``__init__`` is exempt: construction happens-before publication.  Any
``with self.<attr>:`` where the attribute name contains ``lock`` or
``cond`` counts as a lock region (that covers ``threading.Lock``,
``RLock`` and ``Condition`` fields as this repo names them).  A method
whose name ends in ``_locked`` declares the caller-holds-the-lock
convention: its body is analyzed as if a lock were held throughout.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule
from repro.analysis.findings import SEVERITY_WARNING, Finding

#: Method names treated as in-place mutation of a container attribute.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "setdefault",
    }
)

_CONSTRUCTORS = frozenset({"__init__", "__new__", "__post_init__"})

#: Sentinel lock name for ``*_locked`` methods (caller holds the lock).
CALLER_HELD = "<caller-held-lock>"


def _is_lock_name(attr: str) -> bool:
    lowered = attr.lower()
    return "lock" in lowered or "cond" in lowered


@dataclass(slots=True)
class Access:
    """One attribute access site."""

    method: str
    line: int
    kind: str  # "write" | "read"
    lock: str | None  # innermost held lock, or None


@dataclass(slots=True)
class ClassLockReport:
    """Everything the analyzer learned about one class."""

    path: str
    name: str
    line: int
    locks: set[str] = field(default_factory=set)
    accesses: dict[str, list[Access]] = field(default_factory=dict)
    # (outer, inner) -> (method, line) of the first acquisition site
    order_pairs: dict[tuple[str, str], tuple[str, int]] = field(default_factory=dict)

    def guarded_attrs(self) -> set[str]:
        """Attributes written at least once under a lock."""
        return {
            attr
            for attr, accesses in self.accesses.items()
            if any(a.kind == "write" and a.lock is not None for a in accesses)
        }

    def mixed_writes(self, attr: str) -> list[Access]:
        """Unlocked writes to ``attr`` (which also has locked writes)."""

        return [
            a
            for a in self.accesses.get(attr, [])
            if a.kind == "write" and a.lock is None
        ]

    def unlocked_reads(self, attr: str) -> list[Access]:
        """Reads of ``attr`` performed with no lock held."""

        return [
            a
            for a in self.accesses.get(attr, [])
            if a.kind == "read" and a.lock is None
        ]


class _MethodScanner(ast.NodeVisitor):
    """Walk one method body tracking the held-lock stack."""

    def __init__(self, report: ClassLockReport, method: str, self_name: str) -> None:
        self.report = report
        self.method = method
        self.self_name = self_name
        self.held: list[str] = []
        # locks this method acquires regardless of nesting
        self.acquires: set[str] = set()
        # (held lock at call site, callee method name, line)
        self.self_calls: list[tuple[str | None, str, int]] = []

    # -- helpers -------------------------------------------------------

    def _self_attr(self, node: ast.AST) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        ):
            return node.attr
        return None

    def _record(self, attr: str, line: int, kind: str) -> None:
        lock = self.held[-1] if self.held else None
        self.report.accesses.setdefault(attr, []).append(
            Access(self.method, line, kind, lock)
        )

    def _record_write_target(self, target: ast.AST, line: int) -> bool:
        """Record ``self.attr = ...`` / ``self.attr[...] = ...`` writes."""
        attr = self._self_attr(target)
        if attr is not None:
            self._record(attr, line, "write")
            return True
        if isinstance(target, ast.Subscript):
            attr = self._self_attr(target.value)
            if attr is not None:
                self._record(attr, line, "write")
                return True
        if isinstance(target, (ast.Tuple, ast.List)):
            handled = False
            for element in target.elts:
                handled = self._record_write_target(element, line) or handled
            return handled
        return False

    # -- visitors ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = self._self_attr(item.context_expr)
            if attr is not None and _is_lock_name(attr):
                outer = self.held[-1] if self.held else None
                if outer is not None:
                    pair = (outer, attr)
                    self.report.order_pairs.setdefault(
                        pair, (self.method, node.lineno)
                    )
                self.report.locks.add(attr)
                self.acquires.add(attr)
                self.held.append(attr)
                acquired.append(attr)
            else:
                self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self.held.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not self._record_write_target(target, node.lineno):
                self.visit(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if not self._record_write_target(node.target, node.lineno):
            self.visit(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            if not self._record_write_target(node.target, node.lineno):
                self.visit(node.target)
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if not self._record_write_target(target, node.lineno):
                self.visit(target)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # self.method(...) — a candidate transitive lock acquisition
            callee = self._self_attr(func)
            if callee is not None:
                self.self_calls.append(
                    (self.held[-1] if self.held else None, callee, node.lineno)
                )
                self._record(callee, node.lineno, "read")
            else:
                # self.attr.append(...) — in-place container mutation
                container = self._self_attr(func.value)
                if container is not None and func.attr in MUTATOR_METHODS:
                    self._record(container, node.lineno, "write")
                else:
                    self.visit(func)
        else:
            self.visit(func)
        for argument in node.args:
            self.visit(argument)
        for keyword in node.keywords:
            self.visit(keyword.value)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = self._self_attr(node)
        if attr is not None:
            if isinstance(node.ctx, ast.Load) and not _is_lock_name(attr):
                self._record(attr, node.lineno, "read")
            return
        self.visit(node.value)

    # Nested defs capture self but run later with unknown lock state;
    # scan them as unlocked contexts of the same method.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        held, self.held = self.held, []
        for statement in node.body:
            self.visit(statement)
        self.held = held

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


def analyze_class(node: ast.ClassDef, path: str) -> ClassLockReport:
    """Scan every method of ``node`` into one report."""
    report = ClassLockReport(path=path, name=node.name, line=node.lineno)
    method_acquires: dict[str, set[str]] = {}
    method_calls: dict[str, list[tuple[str | None, str, int]]] = {}
    for statement in node.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if statement.name in _CONSTRUCTORS:
            continue
        arguments = statement.args.posonlyargs + statement.args.args
        if not arguments:
            continue  # staticmethod-style: no self to track
        scanner = _MethodScanner(report, statement.name, arguments[0].arg)
        if statement.name.endswith("_locked"):
            scanner.held.append(CALLER_HELD)
        for inner in statement.body:
            scanner.visit(inner)
        method_acquires[statement.name] = scanner.acquires
        method_calls[statement.name] = scanner.self_calls

    # Transitive closure: which locks can each method end up acquiring?
    eventual: dict[str, set[str]] = {
        name: set(acquired) for name, acquired in method_acquires.items()
    }
    changed = True
    while changed:
        changed = False
        for name, calls in method_calls.items():
            for _, callee, _ in calls:
                extra = eventual.get(callee)
                if extra and not extra <= eventual[name]:
                    eventual[name] |= extra
                    changed = True

    # Cross-method order pairs: calling self.m() while holding A acquires
    # everything m eventually acquires, i.e. pairs (A, b).
    for name, calls in method_calls.items():
        for held, callee, line in calls:
            if held is None:
                continue
            for inner in eventual.get(callee, ()):  # pragma: no branch
                report.order_pairs.setdefault((held, inner), (name, line))
    return report


def analyze_module(tree: ast.Module, path: str) -> list[ClassLockReport]:
    """Reports for every top-level class that touches at least one lock."""
    reports = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            report = analyze_class(node, path)
            if report.locks or report.accesses:
                reports.append(report)
    return reports


class LockDiscipline(Rule):
    """Mixed locked/unlocked access and lock-order inversion detection."""

    id = "lock-discipline"
    severity = SEVERITY_WARNING
    fix_hint = (
        "take the lock at every mutation site (and reads that need a "
        "consistent snapshot), or justify the unguarded access in "
        "analysis_baseline.json with a reason"
    )
    rationale = (
        "staged servers hide races exactly here: attributes guarded in one "
        "method and raced in another, and locks taken in both orders"
    )
    exempt_parts = frozenset({"tests"})

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for report in analyze_module(ctx.tree, ctx.path):
            yield from self._class_findings(ctx, report)

    def _class_findings(
        self, ctx: ModuleContext, report: ClassLockReport
    ) -> Iterator[Finding]:
        for attr in sorted(report.guarded_attrs()):
            locked_methods = sorted(
                {
                    a.method
                    for a in report.accesses[attr]
                    if a.kind == "write" and a.lock is not None
                }
            )
            mixed = report.mixed_writes(attr)
            if mixed:
                methods = sorted({a.method for a in mixed})
                yield self.finding(
                    ctx,
                    mixed[0].line,
                    f"{report.name}.{attr}: written under lock in "
                    f"{'/'.join(locked_methods)} but without it in "
                    f"{'/'.join(methods)} — potential race",
                )
            reads = report.unlocked_reads(attr)
            if reads:
                methods = sorted({a.method for a in reads})
                yield self.finding(
                    ctx,
                    reads[0].line,
                    f"{report.name}.{attr}: written under lock in "
                    f"{'/'.join(locked_methods)} but read without it in "
                    f"{'/'.join(methods)}",
                )
        seen: set[tuple[str, str]] = set()
        for (outer, inner), (method, line) in sorted(report.order_pairs.items()):
            if outer == inner:
                yield self.finding(
                    ctx,
                    line,
                    f"{report.name}: method {method} can re-acquire {outer} "
                    "while holding it — self-deadlock with a non-reentrant Lock",
                )
                continue
            if (inner, outer) in report.order_pairs and (inner, outer) not in seen:
                seen.add((outer, inner))
                other_method, _ = report.order_pairs[(inner, outer)]
                first, second = sorted([outer, inner])
                yield self.finding(
                    ctx,
                    line,
                    f"{report.name}: lock-order inversion between {first} and "
                    f"{second} ({method} vs {other_method})",
                )


def format_lock_report(reports: list[ClassLockReport]) -> str:
    """Human-readable per-class lock summary (the ``report-locks`` view)."""
    lines: list[str] = []
    for report in reports:
        lines.append(f"{report.path}:{report.line} class {report.name}")
        lines.append(f"  locks: {', '.join(sorted(report.locks)) or '(none)'}")
        for attr in sorted(report.guarded_attrs()):
            mixed = report.mixed_writes(attr)
            reads = report.unlocked_reads(attr)
            status = "clean"
            if mixed:
                status = f"MIXED WRITES ({len(mixed)} unguarded)"
            elif reads:
                status = f"unlocked reads ({len(reads)})"
            lines.append(f"  guarded attr {attr}: {status}")
        if report.order_pairs:
            orders = ", ".join(
                f"{outer}->{inner}" for outer, inner in sorted(report.order_pairs)
            )
            lines.append(f"  nesting: {orders}")
    return "\n".join(lines)
