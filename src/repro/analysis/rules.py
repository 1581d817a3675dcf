"""The repo-specific lint pack, and :data:`RULES`: every rule.

Each rule encodes an invariant this codebase already promises by
convention — the determinism contract, bounded queues, ``__slots__`` on
hot-path records, fault visibility — so that the promise is *checked*
instead of re-litigated in review.  A finding that is
correct-but-intended is silenced inline (``# repro: disable=<rule-id>``)
or frozen in the committed baseline with a reason string.  The lint
rules are node visitors (they keep :meth:`Rule.run`'s default); lock
discipline and the whole-program rules (retention among them) live in
:mod:`~repro.analysis.locks` and :mod:`~repro.analysis.taint`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    classify_call,
    classify_imports,
    dotted_name,
    handler_names,
)
from repro.analysis.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding
from repro.analysis.locks import LockDiscipline
from repro.analysis.taint import (
    FaultFlowEscape,
    MayBlockOnLoop,
    RequestKeyedRetention,
    WallclockTaint,
)

# -- no-wallclock-duration ----------------------------------------------


class NoWallclockDuration(Rule):
    """``time.time()`` measures the wall, not an interval.

    Wall clocks jump (NTP slew, suspend/resume); every interval in this
    codebase is measured with ``time.monotonic()`` /
    ``time.perf_counter()`` or the module's injected clock.  Sites that
    genuinely want a timestamp (log lines, report dates) say so with an
    inline disable.
    """

    id = "no-wallclock-duration"
    severity = SEVERITY_WARNING
    fix_hint = (
        "use time.monotonic()/time.perf_counter() or the injected clock for "
        "intervals; '# repro: disable=no-wallclock-duration' marks a genuine "
        "timestamp"
    )
    rationale = (
        "wall-clock reads used as interval anchors break under clock "
        "adjustment; the determinism contract injects clocks everywhere else"
    )
    node_types = (ast.Call, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``time.time()`` calls and ``from time import time``."""
        if isinstance(node, ast.ImportFrom):
            if any(kind == "wallclock" for _, kind in classify_imports(node)):
                yield self.finding(
                    ctx.path, node.lineno, "wall-clock import: from time import time"
                )
        elif (call := classify_call(node)) and call[1] == "wallclock":
            yield self.finding(ctx.path, node.lineno, "wall-clock read: time.time()")


# -- no-direct-sleep-random ---------------------------------------------


class NoDirectSleepRandom(Rule):
    """Sleeping or rolling dice outside the injected seams.

    ``repro.resilience`` and ``repro.transport`` own the
    clock/rng/sleep injection points (``CallPolicy`` retries,
    ``LinkScheduler``); everywhere else a direct ``time.sleep`` or
    module-level ``random`` call makes behaviour untestable and
    nondeterministic.
    """

    id = "no-direct-sleep-random"
    severity = SEVERITY_WARNING
    fix_hint = (
        "accept an injected sleep/rng (the resilience/transport seams) or "
        "mark an intentional delay with "
        "'# repro: disable=no-direct-sleep-random'"
    )
    rationale = (
        "the determinism contract routes sleeps and randomness through "
        "injected seams so chaos/retry behaviour replays under test"
    )
    node_types = (ast.Call, ast.ImportFrom)
    exempt_parts = frozenset({"resilience", "transport", "tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag direct ``time.sleep``/``random.*`` outside the seams."""
        if isinstance(node, ast.ImportFrom):
            if any(kind == "sleep" for _, kind in classify_imports(node)):
                yield self.finding(
                    ctx.path, node.lineno, "direct import: from time import sleep"
                )
            elif node.module == "random":
                yield self.finding(
                    ctx.path,
                    node.lineno,
                    "direct import from random; inject an rng instead",
                )
        elif (call := classify_call(node)) and call[1] in ("sleep", "random"):
            yield self.finding(ctx.path, node.lineno, f"direct call: {call[0]}()")


# -- require-slots ------------------------------------------------------

#: Hot-path record classes that must stay ``__slots__``-lean: these are
#: allocated per token, per span, per task or per connection, where the
#: per-instance ``__dict__`` costs both memory and attribute-lookup time.
HOT_PATH_CLASSES = frozenset(
    {
        "Element",
        "XmlScanner",
        "Lexer",
        "StreamingWriter",
        "ChannelReader",
        "Span",
        "_SpanHandle",
        "TaskFuture",
        "InvocationFuture",
        "ResultArray",
        # one packed entry from reader to writer, on both sides
        "DecodedEntry",
        "EncodedEntry",
        # HTTP engine: allocated per connection / per in-flight request
        "ConnectionState",
        "_SocketConnection",
        "MessageParser",
        "ResponseSlot",
    }
)


def _class_has_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        if isinstance(statement, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in statement.targets
            ):
                return True
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name) and statement.target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            if any(
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in decorator.keywords
            ):
                return True
    # NamedTuple subclasses are slotted by construction.
    for base in node.bases:
        name = dotted_name(base)
        if name in ("NamedTuple", "typing.NamedTuple"):
            return True
    return False


class RequireSlots(Rule):
    """Registered hot-path record classes must define ``__slots__``."""

    id = "require-slots"
    severity = SEVERITY_WARNING
    fix_hint = (
        "add __slots__ = (...) (or @dataclass(slots=True)); these classes are "
        "allocated per token/span/task on the hot path"
    )
    rationale = (
        "per-instance __dict__ on per-token/per-span records costs memory and "
        "lookup time where PR 1/3 spent effort winning it back"
    )
    node_types = (ast.ClassDef,)
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag registered hot-path classes defined without ``__slots__``."""
        assert isinstance(node, ast.ClassDef)
        if node.name in HOT_PATH_CLASSES and not _class_has_slots(node):
            yield self.finding(
                ctx.path, node.lineno, f"hot-path class {node.name} has no __slots__"
            )


# -- no-unbounded-queue -------------------------------------------------


class NoUnboundedQueue(Rule):
    """A ``Stage`` built without a ``max_queue`` bound.

    An unbounded backlog converts overload into unbounded latency and
    memory; the resilience layer's whole shed design (Server.Busy /
    HTTP 503) assumes every queue names its bound.  Passing
    ``max_queue=None`` explicitly is accepted as a recorded decision
    when forwarded from a caller's knob.
    """

    id = "no-unbounded-queue"
    severity = SEVERITY_WARNING
    fix_hint = (
        "pass max_queue=<bound> (PoolSaturatedError past it maps to "
        "Server.Busy), or forward a caller's max_queue=... knob"
    )
    rationale = (
        "SEDA-style load shedding only works if every stage queue is "
        "bounded; a missing max_queue silently reintroduces unbounded backlog"
    )
    node_types = (ast.Call,)
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``Stage`` construction without ``max_queue``."""
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "Stage":
            return
        if any(keyword.arg == "max_queue" for keyword in node.keywords):
            return
        if any(keyword.arg is None for keyword in node.keywords):
            return  # **kwargs forwarding may carry the bound
        yield self.finding(
            ctx.path, node.lineno, f"{name}(...) constructed without max_queue"
        )


# -- no-swallowed-fault ------------------------------------------------


_BROAD_EXCEPTION_NAMES = frozenset(
    {"Exception", "BaseException", "SoapError", "SoapFaultError", "SoapFault"}
)


def _body_is_silent(body: list[ast.stmt]) -> bool:
    """True when the handler does nothing observable (pass/.../docstring)."""
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue  # docstring or bare ellipsis
        return False
    return True


class NoSwallowedFault(Rule):
    """A broad catch in a dispatch path whose body is pure ``pass``.

    Per-entry fault isolation depends on every failure *becoming a
    Fault element* (or re-raising) — a silently swallowed exception in
    server/http/core dispatch drops a request slot on the floor with no
    fault, no counter and no span.
    """

    id = "no-swallowed-fault"
    severity = SEVERITY_ERROR
    fix_hint = (
        "map the exception to a SoapFault slot (SoapFault.from_exception), "
        "re-raise, or at minimum record a counter before continuing"
    )
    rationale = (
        "partial-success packs require every entry to answer with a result "
        "or a Fault; a swallowed broad exception silently loses the slot"
    )
    node_types = (ast.ExceptHandler,)
    only_parts = frozenset({"server", "http", "core"})
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag broad handlers whose body silently drops the exception."""
        assert isinstance(node, ast.ExceptHandler)
        names = ["<bare>"] if node.type is None else handler_names(node)
        if not any(name in _BROAD_EXCEPTION_NAMES or name == "<bare>" for name in names):
            return
        if _body_is_silent(node.body):
            caught = ", ".join(names)
            yield self.finding(
                ctx.path,
                node.lineno,
                f"broad except ({caught}) swallows the fault with a bare pass",
            )


#: Every rule, in report order: the lint pack, lock discipline, then
#: the four whole-program rules over the call graph.
RULES: list[Rule] = [
    NoWallclockDuration(),
    NoDirectSleepRandom(),
    RequireSlots(),
    NoUnboundedQueue(),
    NoSwallowedFault(),
    LockDiscipline(),
    MayBlockOnLoop(),
    WallclockTaint(),
    FaultFlowEscape(),
    RequestKeyedRetention(),
]
