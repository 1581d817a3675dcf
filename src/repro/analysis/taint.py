"""The whole-program rules over the project call graph.

Four rules ride on :mod:`repro.analysis.callgraph`:

* **may-block-on-event-loop** — seed facts at blocking sinks
  (``time.sleep``, raw ``socket`` I/O, untimed ``Lock.acquire``,
  zero-arg ``queue.get``/``Future.result``/``join``/``wait``,
  ``subprocess``) and error on any sink-containing function reachable
  through synchronous calls from the loop body (``_run_loop``) —
  in the loop's own module or however many modules away; code that only
  runs on a handler-stage worker may block and is not flagged.  The
  sanctioned EAGAIN-aware wrappers
  (``_recv_nonblocking`` & co.) and functions marked
  ``# repro: nonblocking`` on their ``def`` line are *barriers*:
  traversal does not descend into them, and sinks inside them do not
  seed.  Escaped function references (``stage.submit(self._handle)``)
  are ``ref`` edges and deliberately do **not** propagate — the target
  runs on a worker thread, off the loop.

* **wallclock-taint** — seed at direct ``time.time()`` /
  ``time.monotonic()`` / ``time.perf_counter()`` / ``time.sleep()``
  *calls* (the ``time`` half of the engine's ``TIME_AND_RANDOM``
  table; default-arg references like ``clock: Callable =
  time.monotonic`` stay legal — that is the injection seam), propagate
  up callers, and flag clock-disciplined code (``policy.py``) that
  makes such a call inline or reaches a helper that does; ``from time import <one of them>`` in
  those files is flagged too, since it hides the call from the seed.

* **fault-flow-escape** — compute, per function, the set of exception
  types that may escape it (raise sites plus callee escapes, filtered
  through enclosing ``try/except`` frames; fixpoint over the graph),
  and report every type escaping a server dispatch entry
  (``SoapEndpoint.__call__``, ``*SoapServer._execute``) that is not a
  fault-classified type — those surface as bare 500s instead of a
  ``SoapFault``/``FAULTCODE_HTTP_STATUS`` response.

* **request-keyed-retention** — from the same entries plus the
  client's ``ServiceProxy.exchange``, flag a container attribute of a
  class the entries never construct that a reachable method grows with
  data derived from its parameters while nothing in the class removes
  from it: a leak the peer drives, found by where data flows, not by
  what the attribute is called.

Each is a :class:`~repro.analysis.engine.Rule` that ``uses_graph``:
its ``run`` reads the call graph the engine built for the run, and the
engine scopes and suppresses its findings like any other rule's.
Every finding renders its full witness chain (entry → … → sink) in the
message, using function names only — never line numbers — so baseline
fingerprints survive unrelated edits, exactly like the per-module
rules.  Structured chains also travel on :attr:`Finding.chain` for the
json output.
"""

from __future__ import annotations

import ast
import builtins
import re
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    KIND_CALL,
    KIND_REF,
    CallGraph,
    FunctionNode,
    chain_from,
    iter_reachable,
    walk_back,
    walk_own,
)
from repro.analysis.engine import (
    TIME_KINDS,
    ModuleContext,
    Rule,
    classify_call,
    classify_imports,
    dotted_name,
    handler_names,
)
from repro.analysis.findings import Finding
from repro.analysis.locks import MUTATOR_METHODS

_NONBLOCKING_PRAGMA_RE = re.compile(r"#\s*repro:\s*nonblocking\b")

#: The sanctioned non-blocking I/O wrappers: their bodies touch raw
#: sockets by design (EAGAIN-aware), so they are barriers for the
#: may-block pass.
LOOP_IO_WRAPPERS = frozenset(
    {"_recv_nonblocking", "_send_nonblocking", "_accept_nonblocking"}
)

#: Zero-argument methods that park the calling thread.
_BLOCKING_ZERO_ARG_METHODS = frozenset({"get", "result", "join", "wait", "select"})

#: Raw socket methods that block without a prior readiness check.
_SOCKET_METHODS = frozenset({"recv", "recv_into", "recvfrom", "send", "sendall", "accept", "connect"})

_SUBPROCESS_CALLS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen", "communicate"}
)

#: Files whose code must take clocks by injection.  Every ``time``
#: function counts: ``monotonic``/``perf_counter`` too (the discipline
#: is *injected* clocks, not merely monotonic ones), and ``sleep``
#: (the retry loop backs off through the ``sleep`` it is given).
CLOCK_DISCIPLINED_FILES = frozenset({"policy.py"})

#: Where request data enters the program, as ``Class.method`` (a class
#: whose name ends so matches): the server's dispatch entries, from which
#: no exception may escape unclassified and nothing may be retained
#: without bound, and the client's exchange, where a server's answer
#: enters (retention only).
DISPATCH_ENTRIES = ("SoapEndpoint.__call__", "SoapServer._execute")
RESPONSE_ENTRIES = ("ServiceProxy.exchange",)

#: Builtin exception ancestry (bare names), read off the interpreter:
#: enough to evaluate ``except`` clauses over builtins the project raises.
_BUILTIN_BASES: dict[str, set[str]] = {
    name: {base.__name__ for base in value.__mro__ if base is not object} - {name}
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


# -- generic fact propagation --------------------------------------------


def propagate_up(
    graph: CallGraph,
    seeds: dict[str, str],
    *,
    barriers: frozenset[str] | set[str] = frozenset(),
    kinds: Iterable[str] = (KIND_CALL,),
) -> dict[str, tuple[str | None, str]]:
    """Propagate a fact from seed functions up through their callers.

    ``seeds`` maps function qualnames to a seed description.  Returns
    ``{tainted_qualname: (callee_or_None, description)}`` where the
    first element is the callee the taint arrived through (``None`` for
    seeds themselves) — :func:`walk_back` rebuilds the witness chain
    down to a seed.  ``barriers`` neither taint nor transmit.
    """
    facts: dict[str, tuple[str | None, str]] = {}
    worklist: list[str] = []
    for qualname, description in seeds.items():
        if qualname in graph.functions and qualname not in barriers:
            facts[qualname] = (None, description)
            worklist.append(qualname)
    while worklist:
        current = worklist.pop()
        description = facts[current][1]
        for edge in graph.edges_in(current, kinds):
            caller = edge.caller
            if caller in facts or caller in barriers:
                continue
            facts[caller] = (current, description)
            worklist.append(caller)
    return facts


def entry_functions(graph: CallGraph, names: Iterable[str]) -> list[str]:
    """Qualnames of the methods ``names`` registers, sorted."""
    return sorted(
        qualname
        for qualname, fn in graph.functions.items()
        if fn.cls and any(f"{fn.cls}.{fn.name}".endswith(name) for name in names)
    )


def _pretty_chain(graph: CallGraph, qualnames: Iterable[str]) -> list[str]:
    labels = []
    for qualname in qualnames:
        fn = graph.functions.get(qualname)
        labels.append(fn.short if fn is not None else qualname.rsplit(".", 1)[-1])
    return labels


# -- sink discovery ------------------------------------------------------


def _call_has_timeout(node: ast.Call) -> bool:
    if node.args:
        return True
    return any(kw.arg in ("timeout", "blocking") or kw.arg is None for kw in node.keywords)


def blocking_sinks(fn: FunctionNode) -> list[tuple[int, str]]:
    """``(line, description)`` for every blocking call in ``fn``'s body.

    Purely syntactic: receivers are not typed, so ``anything.acquire()``
    without a timeout counts.  That overshoots on exotic receivers, but
    an ``acquire`` that *can't* block is rare enough to pragma away.
    """
    sinks: list[tuple[int, str]] = []
    for node in walk_own(fn.node):
        if not isinstance(node, ast.Call):
            continue
        chain = dotted_name(node.func)
        if chain is not None:
            head = chain.split(".", 1)[0]
            call = classify_call(node)
            # a bare ``sleep(...)`` is ``from time import sleep``
            if (call and call[1] == "sleep") or chain == "sleep":
                sinks.append((node.lineno, "time.sleep()"))
                continue
            if head == "subprocess" and chain.rsplit(".", 1)[-1] in _SUBPROCESS_CALLS:
                sinks.append((node.lineno, f"{chain}()"))
                continue
            if chain == "select.select":
                sinks.append((node.lineno, "select.select()"))
                continue
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method == "acquire" and not _call_has_timeout(node):
                sinks.append((node.lineno, "untimed .acquire()"))
            elif method in _SOCKET_METHODS:
                sinks.append((node.lineno, f"socket .{method}()"))
            elif (
                method in _BLOCKING_ZERO_ARG_METHODS
                and not node.args
                and not node.keywords
            ):
                sinks.append((node.lineno, f"zero-arg .{method}()"))
    return sinks


def _clock_call(node: ast.AST) -> str | None:
    """``"time.monotonic()"`` when ``node`` directly *calls* a ``time``
    function (references don't count), else None."""
    call = classify_call(node)
    return f"{call[0]}()" if call and call[1] in TIME_KINDS else None


def wallclock_sinks(fn: FunctionNode) -> list[tuple[int, str]]:
    """Direct wall-clock calls in ``fn``'s own body."""
    return [
        (node.lineno, call)
        for node in walk_own(fn.node)
        if (call := _clock_call(node)) is not None
    ]


def _def_line_pragma(ctx: ModuleContext | None, line: int) -> bool:
    if ctx is None or not (1 <= line <= len(ctx.lines)):
        return False
    return bool(_NONBLOCKING_PRAGMA_RE.search(ctx.lines[line - 1]))


def collect_barriers(
    graph: CallGraph, contexts: dict[str, ModuleContext]
) -> frozenset[str]:
    """Functions traversal must not descend into: the sanctioned I/O
    wrappers plus anything marked ``# repro: nonblocking`` on its def."""
    barriers: set[str] = set()
    for qualname, fn in graph.functions.items():
        if fn.name in LOOP_IO_WRAPPERS:
            barriers.add(qualname)
        elif _def_line_pragma(contexts.get(fn.path), fn.line):
            barriers.add(qualname)
    return frozenset(barriers)


# -- analyses ------------------------------------------------------------


class MayBlockOnLoop(Rule):
    """Blocking sinks synchronously reachable from the event loop.

    Downward reachability from the loop entries (respecting barriers,
    following only ``call`` edges) intersected with functions that
    directly contain a blocking sink; the BFS parent chain is the
    witness.
    """

    id = "may-block-on-event-loop-transitive"
    severity = "error"
    uses_graph = True
    fix_hint = (
        "route the work through the bounded stage, use the *_nonblocking "
        "wrappers, or mark a vouched-for helper '# repro: nonblocking'"
    )
    rationale = (
        "nothing synchronously reachable from the loop body (_run_loop) "
        "may park the loop thread: every parked millisecond stalls every "
        "connection (C10K invariant, checked transitively)"
    )

    #: the loop body: every function of this name is an entry point
    entry_name = "_run_loop"

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph
    ) -> Iterator[Finding]:
        entry_qualnames = [
            qualname
            for qualname, fn in graph.functions.items()
            if fn.name == self.entry_name
        ]
        if not entry_qualnames:
            return
        barriers = collect_barriers(graph, contexts)
        parents = iter_reachable(
            graph, entry_qualnames, kinds=(KIND_CALL,), barriers=barriers
        )
        for qualname in sorted(parents):
            if qualname in barriers:
                continue
            fn = graph.functions[qualname]
            for line, description in blocking_sinks(fn):
                chain = chain_from(parents, qualname)
                labels = _pretty_chain(graph, chain)
                yield self.finding(
                    fn.path,
                    line,
                    f"{description} reachable from the event loop via "
                    + " -> ".join(labels),
                    chain=tuple(labels),
                )


class WallclockTaint(Rule):
    """Clock-disciplined code reading the wall clock, inline or through
    a helper.

    The client's resilience policy runs on time: ``Deadline`` expires on
    the clock it is given and ``execute_with_policy`` backs off through
    the ``sleep`` it is given, so its tests replay expiries and retry
    schedules deterministically without waiting.  In ``policy.py`` a
    ``time.*`` function may therefore appear only as an injectable
    default (``clock=time.monotonic``, ``sleep=time.sleep``) — never as
    an inline call, a ``from time import``, or behind a helper (upward
    propagation from every direct call finds those).
    """

    id = "wallclock-taint"
    severity = "error"
    uses_graph = True
    fix_hint = (
        "take the clock or sleep as an argument (clock=time.monotonic "
        "as the default is fine), call the injected seam, and thread it "
        "through helpers instead of reading time directly"
    )
    rationale = (
        "deadline and backoff logic must take clocks by injection so "
        "tests can drive time; one inline time.*() call — or a helper "
        "that reads time.time() two frames down — defeats the seam "
        "(checked inline and transitively)"
    )

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph
    ) -> Iterator[Finding]:
        for ctx in contexts.values():
            if ctx.path.rsplit("/", 1)[-1] in CLOCK_DISCIPLINED_FILES:
                yield from self._inline(ctx)
        seeds: dict[str, str] = {}
        for qualname, fn in graph.functions.items():
            sinks = wallclock_sinks(fn)
            if sinks:
                seeds[qualname] = sinks[0][1]
        if not seeds:
            return
        facts = propagate_up(graph, seeds)
        for qualname in sorted(facts):
            fn = graph.functions[qualname]
            if fn.path.rsplit("/", 1)[-1] not in CLOCK_DISCIPLINED_FILES:
                continue
            tainted_callee = facts[qualname][0]
            if tainted_callee is None:
                continue  # a seed: its inline calls are reported above
            edge_line = next(
                (e.line for e in graph.edges_out(qualname) if e.callee == tainted_callee), fn.line
            )
            chain = walk_back(facts, qualname)
            labels = _pretty_chain(graph, chain)
            yield self.finding(
                fn.path,
                edge_line,
                "transitively reads the wall clock via "
                + " -> ".join(labels)
                + f" ({facts[qualname][1]})",
                chain=tuple(labels),
            )

    def _inline(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Inline calls and ``from time import`` anywhere in one
        clock-disciplined file, module level included."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                messages = [
                    f"from time import {name} in clock-disciplined "
                    "code; inject the clock instead"
                    for name, kind in classify_imports(node)
                    if kind in TIME_KINDS
                ]
            elif (call := _clock_call(node)) is not None:
                messages = [
                    f"inline {call} in clock-disciplined code; call the "
                    "injected clock seam instead"
                ]
            else:
                continue
            for message in messages:
                yield self.finding(ctx.path, node.lineno, message)


class _HandlerFrame:
    """One enclosing ``try`` whose body we are inside."""

    __slots__ = ("catches", "catch_all")

    def __init__(self, handlers: list[ast.ExceptHandler]) -> None:
        self.catches: set[str] = set()
        self.catch_all = False
        for handler in handlers:
            if handler.type is None:
                self.catch_all = True
            for name in handler_names(handler):
                if name == "BaseException":
                    self.catch_all = True
                else:
                    # ``except Exception`` absorbs through the ancestry
                    # lineage like any other type
                    self.catches.add(name)


class FaultFlowEscape(Rule):
    """Exception types that can escape a server dispatch entry.

    Per-function escaping sets (raises plus callee escapes, filtered
    through enclosing ``try/except`` frames with hierarchy-aware
    matching) iterated to a fixpoint; anything still escaping
    ``SoapEndpoint.__call__`` or an architecture ``_execute`` has no
    fault classification and would surface as a bare 500.
    """

    id = "fault-flow-escape"
    severity = "error"
    uses_graph = True
    fix_hint = (
        "catch the exception on the dispatch path and convert it with "
        "SoapFault.from_exception / a FAULTCODE_HTTP_STATUS mapping, or "
        "baseline it with a reason if the transport genuinely owns it"
    )
    rationale = (
        "every exception transitively raisable on a server dispatch path "
        "must map to a fault classification; an unclassified escape "
        "surfaces as a bare 500 with no SOAP fault envelope"
    )

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph
    ) -> Iterator[Finding]:
        ancestry = self._exception_ancestry(graph)
        escaping, origins = self._escaping_sets(graph, ancestry)
        for qualname in entry_functions(graph, DISPATCH_ENTRIES):
            fn = graph.functions[qualname]
            for exc in sorted(escaping.get(qualname, ())):
                chain_qualnames, line = self._witness(
                    origins, qualname, exc
                )
                report_line = line if line is not None else fn.line
                labels = _pretty_chain(graph, chain_qualnames)
                yield self.finding(
                    fn.path,
                    report_line,
                    f"{exc} can escape dispatch entry {fn.short} "
                    "unclassified (no SoapFault/FAULTCODE_HTTP_STATUS "
                    "mapping) via " + " -> ".join(labels),
                    chain=tuple(labels),
                )

    # -- hierarchy -------------------------------------------------------

    def _exception_ancestry(self, graph: CallGraph) -> dict[str, set[str]]:
        """bare exception name -> all ancestor bare names (inclusive)."""
        parents = {name: set(bases) for name, bases in _BUILTIN_BASES.items()}
        for info in graph.classes.values():
            bare_bases = {b.rsplit(".", 1)[-1] for b in info.bases}
            parents.setdefault(info.name, set()).update(bare_bases)
        ancestry: dict[str, set[str]] = {}

        def close(name: str, trail: set[str]) -> set[str]:
            cached = ancestry.get(name)
            if cached is not None:
                return cached
            result = {name}
            for base in parents.get(name, ()):
                if base in trail:
                    continue
                result |= close(base, trail | {name})
            ancestry[name] = result
            return result

        for name in list(parents):
            close(name, set())
        return ancestry

    def _caught_by(
        self,
        exc: str,
        frames: list[_HandlerFrame],
        ancestry: dict[str, set[str]],
    ) -> bool:
        lineage = ancestry.get(exc, {exc, "Exception", "BaseException"})
        for frame in frames:
            if frame.catch_all:
                return True
            if frame.catches & lineage:
                return True
        return False

    # -- per-function escape computation ---------------------------------

    def _escaping_sets(
        self, graph: CallGraph, ancestry: dict[str, set[str]]
    ) -> tuple[
        dict[str, set[str]],
        dict[str, dict[str, tuple[str | None, int]]],
    ]:
        """Fixpoint of escaping-exception sets over the call graph.

        Returns ``(escaping, origins)`` where
        ``origins[fn][exc] = (callee_or_None, line)`` — the site the
        exception escapes through (a raise when callee is None).
        """
        escaping: dict[str, set[str]] = {q: set() for q in graph.functions}
        origins: dict[str, dict[str, tuple[str | None, int]]] = {
            q: {} for q in graph.functions
        }
        worklist = list(graph.functions)
        pending = set(worklist)
        while worklist:
            qualname = worklist.pop()
            pending.discard(qualname)
            fn = graph.functions[qualname]
            new_escaping, new_origins = self._escapes_of(
                graph, fn, escaping, ancestry
            )
            if new_escaping != escaping[qualname]:
                escaping[qualname] = new_escaping
                origins[qualname] = new_origins
                for edge in graph.edges_in(qualname):
                    if edge.caller not in pending:
                        pending.add(edge.caller)
                        worklist.append(edge.caller)
            else:
                origins[qualname] = new_origins
        return escaping, origins

    def _escapes_of(
        self,
        graph: CallGraph,
        fn: FunctionNode,
        escaping: dict[str, set[str]],
        ancestry: dict[str, set[str]],
    ) -> tuple[set[str], dict[str, tuple[str | None, int]]]:
        result: set[str] = set()
        origins: dict[str, tuple[str | None, int]] = {}
        #: call line -> callee qualnames at that line (Call.lineno keyed)
        edges_by_line: dict[int, list[str]] = {}
        for edge in graph.edges_out(fn.qualname):
            edges_by_line.setdefault(edge.line, []).append(edge.callee)

        def record(exc: str, callee: str | None, line: int) -> None:
            if exc not in result:
                result.add(exc)
                origins[exc] = (callee, line)

        def scan_expressions(
            node: ast.AST, frames: list[_HandlerFrame]
        ) -> None:
            """Callee escapes for every Call in an expression tree."""
            for expr in ast.walk(node):
                if isinstance(
                    expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                if not isinstance(expr, ast.Call):
                    continue
                for callee in edges_by_line.get(expr.lineno, ()):
                    for exc in escaping.get(callee, ()):
                        if not self._caught_by(exc, frames, ancestry):
                            record(exc, callee, expr.lineno)

        def walk(
            nodes: Iterable[ast.stmt],
            frames: list[_HandlerFrame],
            caught_names: list[str],
        ) -> None:
            for statement in nodes:
                if isinstance(
                    statement,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(statement, ast.Try):
                    frame = _HandlerFrame(statement.handlers)
                    walk(statement.body, frames + [frame], caught_names)
                    for handler in statement.handlers:
                        names = (
                            ["Exception"]
                            if handler.type is None
                            else handler_names(handler)
                        )
                        walk(handler.body, frames, caught_names + names)
                    walk(statement.orelse, frames, caught_names)
                    walk(statement.finalbody, frames, caught_names)
                    continue
                if isinstance(statement, ast.Raise):
                    self._raise_escapes(
                        statement, frames, caught_names, ancestry, record
                    )
                    scan_expressions(statement, frames)
                    continue
                if isinstance(statement, (ast.If, ast.While)):
                    scan_expressions(statement.test, frames)
                    walk(statement.body, frames, caught_names)
                    walk(statement.orelse, frames, caught_names)
                    continue
                if isinstance(statement, (ast.For, ast.AsyncFor)):
                    scan_expressions(statement.iter, frames)
                    walk(statement.body, frames, caught_names)
                    walk(statement.orelse, frames, caught_names)
                    continue
                if isinstance(statement, (ast.With, ast.AsyncWith)):
                    for item in statement.items:
                        scan_expressions(item.context_expr, frames)
                    walk(statement.body, frames, caught_names)
                    continue
                match_cases = getattr(statement, "cases", None)
                if match_cases is not None:  # ast.Match
                    scan_expressions(statement.subject, frames)
                    for case in match_cases:
                        walk(case.body, frames, caught_names)
                    continue
                # simple statement: every call lives in its expressions
                scan_expressions(statement, frames)

        body = getattr(fn.node, "body", [])
        walk(body, [], [])
        return result, origins

    def _raise_escapes(
        self,
        statement: ast.Raise,
        frames: list[_HandlerFrame],
        caught_names: list[str],
        ancestry: dict[str, set[str]],
        record,
    ) -> None:
        if statement.exc is None:
            # bare ``raise`` re-raises whatever the enclosing handler
            # caught
            for name in caught_names:
                if not self._caught_by(name, frames, ancestry):
                    record(name, None, statement.lineno)
            return
        target = statement.exc
        if isinstance(target, ast.Call):
            target = target.func
        chain = dotted_name(target)
        if chain is None:
            return  # dynamic raise (``raise exc_var``) — out of scope
        name = chain.rsplit(".", 1)[-1]
        if name not in ancestry:
            # not a known project or builtin exception class: a factory
            # call (``raise self._error(...)``) or truly dynamic — skip
            return
        if not self._caught_by(name, frames, ancestry):
            record(name, None, statement.lineno)

    def _witness(
        self,
        origins: dict[str, dict[str, tuple[str | None, int]]],
        entry: str,
        exc: str,
    ) -> tuple[list[str], int | None]:
        chain = [entry]
        seen = {entry}
        current = entry
        first_line: int | None = None
        while True:
            origin = origins.get(current, {}).get(exc)
            if origin is None:
                break
            callee, line = origin
            if first_line is None:
                first_line = line
            if callee is None or callee in seen:
                break
            seen.add(callee)
            chain.append(callee)
            current = callee
        return chain, first_line


# -- request-keyed retention -----------------------------------------------

#: Calls that take something out of a container; the other mutators grow it.
_SHRINKING_CALLS = frozenset({"clear", "discard", "pop", "popitem", "popleft", "remove"})
_GROWING_CALLS = MUTATOR_METHODS - _SHRINKING_CALLS
_CONTAINER_CALLS = frozenset({"OrderedDict", "defaultdict", "deque", "dict", "list", "set"})
_CONTAINER_LITERALS = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)


def _names(node: ast.AST, ctx: type = ast.Load) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ctx)}


def _self_attr(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """``X`` for ``self.X``, or for a local bound to ``self.X``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr if node.value.id == "self" else None
    return aliases.get(node.id) if isinstance(node, ast.Name) else None


def _is_unbounded_container(value: ast.expr | None) -> bool:
    if isinstance(value, ast.Call):
        name = (dotted_name(value.func) or "").rsplit(".", 1)[-1]
        maxlen = any(kw.arg == "maxlen" for kw in value.keywords) or len(value.args) > 1
        return name in _CONTAINER_CALLS and not (maxlen and name == "deque")
    return isinstance(value, _CONTAINER_LITERALS)


def _retention(fn: FunctionNode) -> tuple[list, set[str], dict[str, int]]:
    """What ``fn`` does to ``self``'s attributes: the ``(attr, line,
    value)`` it assigns, the attributes it removes from, and those it
    grows with data derived from its own parameters (attr → line)."""
    args = fn.node.args  # type: ignore[attr-defined]
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    derived = {a.arg for a in params if a is not None} - {"self", "cls"}
    nodes = list(walk_own(fn.node))
    binds: list[tuple[list[ast.expr], ast.expr]] = []  # (targets, value)
    for node in nodes:
        if isinstance(node, ast.Assign):
            binds.append((node.targets, node.value))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            binds.append(([node.target], node.value))
        elif isinstance(node, (ast.For, ast.comprehension)):
            binds.append(([node.target], node.iter))
    aliases = {  # local = self.X
        targets[0].id: attr
        for targets, value in binds
        if isinstance(targets[0], ast.Name) and (attr := _self_attr(value, {}))
    }
    # flow-insensitive: a name is derived when any of its bindings is
    while grown_names := {
        name
        for targets, value in binds
        if _names(value) & derived
        for target in targets
        for name in _names(target, ast.Store)
    } - derived:
        derived |= grown_names
    assigned, shrunk, grown = [], set(), {}
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if (attr := _self_attr(target, {})) is not None:
                    assigned.append((attr, node.lineno, node.value))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Delete)):
            for target in getattr(node, "targets", None) or [node.target]:
                if isinstance(target, ast.Subscript) and (attr := _self_attr(target.value, aliases)):
                    if isinstance(node, ast.Delete):
                        shrunk.add(attr)
                    elif _names(target.slice) & derived:
                        grown.setdefault(attr, node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (attr := _self_attr(node.func.value, aliases)) is None:
                continue
            method = node.func.attr
            keyed = node.args[:1] if method == "setdefault" else node.args
            if method in _SHRINKING_CALLS:
                shrunk.add(attr)
            elif method in _GROWING_CALLS and any(_names(arg) & derived for arg in keyed):
                grown.setdefault(attr, node.lineno)
    return assigned, shrunk, grown


class RequestKeyedRetention(Rule):
    """A long-lived container that request data grows and nothing shrinks.

    *Long-lived*: the class's constructor is not reachable from the
    entries (a scanner or writer built per document dies with its
    request).  A container attribute (dict, set, list or deque, no
    ``maxlen``) is flagged when a method reachable from an entry grows
    it with a key or value derived from that method's parameters, and
    no method of the class removes from it or assigns it again.  The
    finding sits on the attribute's assignment, with the entry's chain.
    """

    id = "request-keyed-retention"
    severity = "error"
    uses_graph = True
    fix_hint = (
        "bind the entries once where the key set is fixed (deploy time), "
        "evict (popitem/pop/clear, deque(maxlen=...)), or name what bounds "
        "the key set with '# repro: disable=request-keyed-retention'"
    )
    rationale = (
        "a container that outlives requests and grows with whatever a peer "
        "sends (an operation name, a trace id) is a memory leak the peer "
        "drives; checked by following request data, not attribute names"
    )

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph
    ) -> Iterator[Finding]:
        entries = entry_functions(graph, DISPATCH_ENTRIES + RESPONSE_ENTRIES)
        parents = iter_reachable(graph, entries, kinds=(KIND_CALL, KIND_REF))
        by_class: dict[str, list[tuple[str, tuple]]] = {}
        for qualname, fn in graph.functions.items():
            if fn.cls is not None:
                by_class.setdefault(f"{fn.module}.{fn.cls}", []).append((qualname, _retention(fn)))
        for cls in sorted(by_class):
            if graph.resolve_method(cls, "__init__") in parents:
                continue  # built on the request path: dies with its request
            scans = by_class[cls]
            sites = [site for _, (assigned, _, _) in scans for site in assigned]
            shrunk = set().union(*(removed for _, (_, removed, _) in scans))
            for attr, line, value in sorted(sites, key=lambda site: site[:2]):
                once = [site[0] for site in sites].count(attr) == 1
                growers = sorted(q for q, (_, _, grown) in scans if attr in grown and q in parents)
                if once and growers and attr not in shrunk and _is_unbounded_container(value):
                    labels = _pretty_chain(graph, chain_from(parents, growers[0]))
                    yield self.finding(
                        graph.functions[growers[0]].path,
                        line,
                        f"{cls.rsplit('.', 1)[-1]}.{attr} grows with request data and "
                        "nothing in the class removes from it, via " + " -> ".join(labels),
                        chain=tuple(labels),
                    )
