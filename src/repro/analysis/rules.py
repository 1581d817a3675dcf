"""The repo-specific lint pack.

Each rule encodes an invariant this codebase already promises by
convention — the determinism contract, bounded queues, fault
visibility — so that the promise is *checked* instead of re-litigated
in review.  Rules are heuristic by design: a finding that
is correct-but-intended is silenced inline
(``# repro: disable=<rule-id>``) or frozen in the committed baseline
with a reason string.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule, dotted_name
from repro.analysis.findings import SEVERITY_ERROR, SEVERITY_WARNING, Finding

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
            if node.module == "time" and any(a.name == "time" for a in node.names):
                yield self.finding(
                    ctx,
                    node.lineno,
                    "wall-clock import: from time import time",
                )
            return
        assert isinstance(node, ast.Call)
        if dotted_name(node.func) == "time.time":
            yield self.finding(ctx, node.lineno, "wall-clock read: time.time()")


# -- no-direct-sleep-random ---------------------------------------------


_RANDOM_CALLS = frozenset(
    {
        "random.random",
        "random.Random",
        "random.uniform",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.shuffle",
        "random.sample",
        "random.seed",
    }
)


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
            if node.module == "time" and any(a.name == "sleep" for a in node.names):
                yield self.finding(
                    ctx, node.lineno, "direct import: from time import sleep"
                )
            elif node.module == "random":
                yield self.finding(
                    ctx,
                    node.lineno,
                    "direct import from random; inject an rng instead",
                )
            return
        assert isinstance(node, ast.Call)
        chain = dotted_name(node.func)
        if chain == "time.sleep":
            yield self.finding(ctx, node.lineno, "direct call: time.sleep()")
        elif chain in _RANDOM_CALLS:
            yield self.finding(ctx, node.lineno, f"direct call: {chain}()")


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
        "PoolStats",
        "StageStats",
        "TraceEvent",
        "StartTag",
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
                ctx,
                node.lineno,
                f"hot-path class {node.name} has no __slots__",
            )


# -- no-unbounded-queue -------------------------------------------------


class NoUnboundedQueue(Rule):
    """ThreadPool/Stage built without a ``max_queue`` bound.

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
        "SEDA-style load shedding only works if every stage/pool queue is "
        "bounded; a missing max_queue silently reintroduces unbounded backlog"
    )
    node_types = (ast.Call,)
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``ThreadPool``/``Stage`` construction without ``max_queue``."""
        assert isinstance(node, ast.Call)
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name not in ("ThreadPool", "Stage"):
            return
        if any(keyword.arg == "max_queue" for keyword in node.keywords):
            return
        if any(keyword.arg is None for keyword in node.keywords):
            return  # **kwargs forwarding may carry the bound
        yield self.finding(
            ctx,
            node.lineno,
            f"{name}(...) constructed without max_queue",
        )


# -- no-unbounded-cache -------------------------------------------------

#: Self-attribute names that look like a memo/cache store.
_CACHE_NAME_MARKERS = ("cache", "memo", "template", "intern")

#: Identifier fragments that signal the class registers a bound
#: (capacity knob, eviction, or scope-version clearing).
_BOUND_MARKERS = ("max", "bound", "capacity", "limit", "evict", "lru", "popitem")


def _dict_valued(value: ast.expr) -> bool:
    if isinstance(value, ast.Dict):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name is not None and name.rsplit(".", 1)[-1] in (
            "dict",
            "OrderedDict",
            "defaultdict",
        )
    return False


def _class_mentions_bound(node: ast.ClassDef) -> bool:
    for descendant in ast.walk(node):
        name: str | None = None
        if isinstance(descendant, ast.Name):
            name = descendant.id
        elif isinstance(descendant, ast.Attribute):
            name = descendant.attr
        elif isinstance(descendant, ast.arg):
            name = descendant.arg
        elif isinstance(descendant, ast.keyword):
            name = descendant.arg
        if name and any(marker in name.lower() for marker in _BOUND_MARKERS):
            return True
    return False


class NoUnboundedCache(Rule):
    """A dict-backed cache/memo attribute in a class with no bound.

    PR-6 put caches on both hot paths (serialization templates,
    client responses); every one of them is a bounded LRU because an
    unbounded memo keyed by request-derived data is a memory leak an
    adversarial peer can drive.  Any class that assigns a dict to a
    ``self.*cache*``/``*memo*``/``*template*``/``*intern*`` attribute
    must mention a bound somewhere in its body (a ``max_*``/
    ``*_limit``/``capacity`` knob, an ``evict``/``lru``/``popitem``
    mechanism) — or explain itself with an inline disable.
    """

    id = "no-unbounded-cache"
    severity = SEVERITY_WARNING
    fix_hint = (
        "give the cache a capacity knob plus eviction (bounded LRU), or mark "
        "a deliberately version-cleared memo with "
        "'# repro: disable=no-unbounded-cache'"
    )
    rationale = (
        "a dict-backed memo keyed by request-derived data grows without "
        "limit under adversarial input; every production cache in this "
        "codebase names its bound"
    )
    node_types = (ast.ClassDef,)
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag cache-named dict attributes in classes without a bound."""
        assert isinstance(node, ast.ClassDef)
        suspects: list[tuple[int, str]] = []
        for descendant in ast.walk(node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(descendant, ast.Assign):
                targets = descendant.targets
                value = descendant.value
            elif isinstance(descendant, ast.AnnAssign) and descendant.value is not None:
                targets = [descendant.target]
                value = descendant.value
            if value is None or not _dict_valued(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and any(
                        marker in target.attr.lower()
                        for marker in _CACHE_NAME_MARKERS
                    )
                ):
                    suspects.append((descendant.lineno, target.attr))
        if not suspects or _class_mentions_bound(node):
            return
        for lineno, attr in suspects:
            yield self.finding(
                ctx,
                lineno,
                f"{node.name}.{attr} is a dict-backed cache with no "
                "registered bound",
            )


# -- no-unbounded-span-store --------------------------------------------

#: Self-attribute names that look like a span/trace retention buffer.
_SPAN_STORE_NAME_MARKERS = ("span", "trace")


def _container_valued(value: ast.expr) -> bool:
    if isinstance(value, (ast.Dict, ast.List)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        return name is not None and name.rsplit(".", 1)[-1] in (
            "dict",
            "OrderedDict",
            "defaultdict",
            "deque",
            "list",
        )
    return False


class NoUnboundedSpanStore(Rule):
    """A span/trace retention buffer in a class that names no bound.

    The telemetry plane retains per-request data (spans, traces) in
    long-lived server objects; unlike a cache, a telemetry buffer grows
    with *traffic*, not key diversity, so an unbounded one is a memory
    leak under perfectly benign load.  Every retention structure in
    ``repro.obs`` names its bound (ring ``capacity``, ``max_traces`` /
    ``max_spans_per_trace`` / ``max_bytes``); any class assigning a
    container to a ``self.*span*``/``*trace*`` attribute must mention a
    bound in its body or carry an inline disable naming the enforcer.
    """

    id = "no-unbounded-span-store"
    severity = SEVERITY_WARNING
    fix_hint = (
        "bound the buffer (deque(maxlen=...), a max_* knob plus eviction), "
        "or name the external enforcer with "
        "'# repro: disable=no-unbounded-span-store'"
    )
    rationale = (
        "span/trace buffers grow with traffic, not key diversity; an "
        "unbounded one leaks memory under benign load, so every retention "
        "structure must register its bound"
    )
    node_types = (ast.ClassDef,)
    exempt_parts = frozenset({"tests"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag span/trace-named container attributes in unbounded classes."""
        assert isinstance(node, ast.ClassDef)
        suspects: list[tuple[int, str]] = []
        for descendant in ast.walk(node):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(descendant, ast.Assign):
                targets = descendant.targets
                value = descendant.value
            elif isinstance(descendant, ast.AnnAssign) and descendant.value is not None:
                targets = [descendant.target]
                value = descendant.value
            if value is None or not _container_valued(value):
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and any(
                        marker in target.attr.lower()
                        for marker in _SPAN_STORE_NAME_MARKERS
                    )
                ):
                    suspects.append((descendant.lineno, target.attr))
        if not suspects or _class_mentions_bound(node):
            return
        for lineno, attr in suspects:
            yield self.finding(
                ctx,
                lineno,
                f"{node.name}.{attr} is a span/trace buffer with no "
                "registered bound",
            )


# -- no-bare-except / no-swallowed-fault --------------------------------


class NoBareExcept(Rule):
    """``except:`` catches SystemExit/KeyboardInterrupt too."""

    id = "no-bare-except"
    severity = SEVERITY_ERROR
    fix_hint = "catch a concrete exception type (BaseException if truly everything)"
    rationale = (
        "a bare except in dispatch paths eats shutdown signals and hides "
        "the fault taxonomy the resilience layer depends on"
    )
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag ``except:`` handlers with no exception type."""
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(ctx, node.lineno, "bare except:")


_BROAD_EXCEPTION_NAMES = frozenset(
    {"Exception", "BaseException", "SoapError", "SoapFaultError", "SoapFault"}
)


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    node = handler.type
    if node is None:
        return ["<bare>"]
    nodes = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for item in nodes:
        chain = dotted_name(item)
        if chain is not None:
            names.append(chain.rsplit(".", 1)[-1])
    return names


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
        names = _caught_names(node)
        if not any(name in _BROAD_EXCEPTION_NAMES or name == "<bare>" for name in names):
            return
        if _body_is_silent(node.body):
            caught = ", ".join(names)
            yield self.finding(
                ctx,
                node.lineno,
                f"broad except ({caught}) swallows the fault with a bare pass",
            )


def lint_rules() -> list[Rule]:
    """The lint pack (lock-discipline lives in repro.analysis.locks)."""
    return [
        NoWallclockDuration(),
        NoDirectSleepRandom(),
        RequireSlots(),
        NoUnboundedQueue(),
        NoUnboundedCache(),
        NoUnboundedSpanStore(),
        NoBareExcept(),
        NoSwallowedFault(),
    ]
