"""The whole-program rules over the project call graph.

Three rules ride on :mod:`repro.analysis.callgraph`:

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
  up callers, and flag clock-disciplined code (``rollup.py``) that
  makes such a call inline or reaches a helper that does; ``from time import <one of them>`` in
  those files is flagged too, since it hides the call from the seed.

* **fault-flow-escape** — compute, per function, the set of exception
  types that may escape it (raise sites plus callee escapes, filtered
  through enclosing ``try/except`` frames; fixpoint over the graph),
  and report every type escaping a server dispatch entry
  (``SoapEndpoint.__call__``, ``*SoapServer._execute``) that is not a
  fault-classified type — those surface as bare 500s instead of a
  ``SoapFault``/``FAULTCODE_HTTP_STATUS`` response.

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
import re
from typing import Iterable, Iterator

from repro.analysis.callgraph import (
    KIND_CALL,
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
#: (a rollup decays on the clock it is given; it never waits).
CLOCK_DISCIPLINED_FILES = frozenset({"rollup.py"})

#: Builtin exception ancestry (bare names), enough to evaluate
#: ``except`` clauses over builtins the project raises.
_BUILTIN_BASES: dict[str, str] = {
    "SystemExit": "BaseException",
    "KeyboardInterrupt": "BaseException",
    "GeneratorExit": "BaseException",
    "Exception": "BaseException",
    "ArithmeticError": "Exception",
    "ZeroDivisionError": "ArithmeticError",
    "OverflowError": "ArithmeticError",
    "AssertionError": "Exception",
    "AttributeError": "Exception",
    "BufferError": "Exception",
    "EOFError": "Exception",
    "ImportError": "Exception",
    "ModuleNotFoundError": "ImportError",
    "LookupError": "Exception",
    "IndexError": "LookupError",
    "KeyError": "LookupError",
    "MemoryError": "Exception",
    "NameError": "Exception",
    "NotImplementedError": "RuntimeError",
    "OSError": "Exception",
    "IOError": "OSError",
    "BlockingIOError": "OSError",
    "BrokenPipeError": "ConnectionError",
    "ConnectionError": "OSError",
    "ConnectionAbortedError": "ConnectionError",
    "ConnectionRefusedError": "ConnectionError",
    "ConnectionResetError": "ConnectionError",
    "FileNotFoundError": "OSError",
    "InterruptedError": "OSError",
    "PermissionError": "OSError",
    "TimeoutError": "OSError",
    "ReferenceError": "Exception",
    "RuntimeError": "Exception",
    "RecursionError": "RuntimeError",
    "StopIteration": "Exception",
    "StopAsyncIteration": "Exception",
    "SyntaxError": "Exception",
    "TypeError": "Exception",
    "UnboundLocalError": "NameError",
    "UnicodeError": "ValueError",
    "UnicodeDecodeError": "UnicodeError",
    "UnicodeEncodeError": "UnicodeError",
    "ValueError": "Exception",
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

    The per-target rollups decay their EWMAs on time: their tests
    replay bursts and regime changes deterministically by injecting the
    clock and never sleeping.  In ``rollup.py`` a ``time.*`` function
    may therefore appear only as an injectable default
    (``clock=time.monotonic``) — never as an inline call, a
    ``from time import``, or behind a helper (upward propagation from
    every direct call finds those).
    """

    id = "wallclock-taint"
    severity = "error"
    uses_graph = True
    fix_hint = (
        "take the clock as a constructor argument (clock=time.monotonic "
        "as the default is fine), call the injected seam, and thread it "
        "through helpers instead of reading time directly"
    )
    rationale = (
        "rollup decay logic must take clocks by injection so "
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
            edge_line = fn.line
            for edge in graph.edges_out(qualname):
                if edge.callee == tainted_callee:
                    edge_line = edge.line
                    break
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

    #: dispatch entries, matched as (class predicate, method name)
    def _is_entry(self, fn: FunctionNode) -> bool:
        if fn.cls == "SoapEndpoint" and fn.name == "__call__":
            return True
        return fn.name == "_execute" and (fn.cls or "").endswith("SoapServer")

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph
    ) -> Iterator[Finding]:
        ancestry = self._exception_ancestry(graph)
        escaping, origins = self._escaping_sets(graph, ancestry)
        for qualname in sorted(graph.functions):
            fn = graph.functions[qualname]
            if not self._is_entry(fn):
                continue
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
        parents: dict[str, set[str]] = {}
        for name, base in _BUILTIN_BASES.items():
            parents.setdefault(name, set()).add(base)
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
