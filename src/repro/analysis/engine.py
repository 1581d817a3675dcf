"""Rule engine: file walking, one pass of every rule, path scoping and
inline suppression.

There is one kind of check, the :class:`Rule`, and one entry point,
:func:`check`.  A rule overrides :meth:`Rule.run`, which receives every
parsed module of the run and the run's call graph; node-visitor rules
keep the default ``run``, which visits the node types they declare
(``node_types``) in every module.  Rules that read the graph say so
(``uses_graph``); the engine builds it once per run, and only then.

Scoping.  Rules carry two path filters, both matched against a
*repo-relative posix path*: a rule is handed only the modules in its
scope, and a finding whose path is out of scope (a whole-program rule
reporting where a chain ends) is dropped.

* ``exempt_parts`` — any path segment in this set exempts the path
  (``no-direct-sleep-random`` exempts ``resilience``/``transport``,
  the modules that *are* the injected seams, and ``tests``);
* ``only_parts`` — when non-empty, at least one segment must match
  (``no-swallowed-fault`` only patrols server dispatch paths).

Suppression.  A finding is dropped when its line carries
``# repro: disable=<rule-id>`` (comma-separated ids, or ``all``), or
when one of the first lines of its file carries
``# repro: disable-file=<rule-id>``.  Suppressions are deliberate,
reviewable markers — prefer them over baseline entries for violations
that are *by design* (e.g. a demo service whose contract is to sleep).
A pragma naming an id that no rule of :data:`~repro.analysis.rules.RULES`
has is an ``unknown-disable`` finding, which nothing suppresses: like a
stale baseline entry, it is an allowance that names nothing.

The engine is the only place either filter is applied, for every rule
alike: a rule reports what it sees, the engine decides what is shown.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.findings import Finding, sort_findings

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph

# Directories never walked implicitly: fixture corpora are intentional
# violations exercised by tests, caches are not source.
EXCLUDED_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".hypothesis", "fixtures", "results"}
)

_DISABLE_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\-]+)")
_DISABLE_FILE_RE = re.compile(r"#\s*repro:\s*disable-file=([A-Za-z0-9_,\-]+)")
_FILE_PRAGMA_LINES = 10  # disable-file pragmas must sit near the top

#: Every ``time`` and ``random`` function the determinism rules look at,
#: by dotted name, with what calling it does: read the wall clock
#: (``wallclock``), read a monotonic clock (``clock``), park the thread
#: (``sleep``) or draw from the process-wide rng (``random``).  The lint
#: rules, ``wallclock-taint`` and ``may-block``'s sleep sink all
#: classify calls and ``from ... import`` names through this one table.
TIME_AND_RANDOM = {
    "time.time": "wallclock",
    "time.monotonic": "clock",
    "time.perf_counter": "clock",
    "time.sleep": "sleep",
    **{
        f"random.{name}": "random"
        for name in (
            "random", "Random", "uniform", "randint", "randrange",
            "choice", "shuffle", "sample", "seed",
        )
    },
}

#: The kinds that are the ``time`` module's (``wallclock-taint`` reads
#: all three: clock-disciplined code takes every clock by injection).
TIME_KINDS = frozenset({"wallclock", "clock", "sleep"})


def _comments(source: str) -> Iterator[tuple[int, str]]:
    """``(line, text)`` of every comment token: a pragma is a comment, so
    the same text inside a string literal is not one."""
    if "repro:" not in source:  # no pragma: skip the tokenizer
        return
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


class ModuleContext:
    """Everything a rule may need about the file under analysis."""

    __slots__ = ("path", "tree", "lines", "disables", "_line_disables", "_file_disables")

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.lines = source.splitlines()
        #: ``(line, rule id)`` of every id a pragma that applies names
        self.disables: list[tuple[int, str]] = []
        self._line_disables: dict[int, frozenset[str]] = {}
        file_disables: set[str] = set()

        def named(match: re.Match, number: int) -> frozenset[str]:
            ids = frozenset(part.strip() for part in match.group(1).split(","))
            self.disables.extend((number, rule_id) for rule_id in sorted(ids))
            return ids

        for number, comment in _comments(source):
            if match := _DISABLE_RE.search(comment):
                self._line_disables[number] = named(match, number)
            if number <= _FILE_PRAGMA_LINES and (match := _DISABLE_FILE_RE.search(comment)):
                file_disables |= named(match, number)
        self._file_disables = frozenset(file_disables)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when an inline or file pragma silences ``rule_id`` here."""
        if rule_id in self._file_disables or "all" in self._file_disables:
            return True
        disabled = self._line_disables.get(line)
        return disabled is not None and (rule_id in disabled or "all" in disabled)


class Rule:
    """Base class for every analysis rule."""

    id: str = ""
    severity: str = "warning"
    fix_hint: str = ""
    #: short human description, rendered by ``python -m repro.analysis rules``
    rationale: str = ""
    node_types: tuple[type, ...] = ()
    exempt_parts: frozenset[str] = frozenset()
    only_parts: frozenset[str] = frozenset()
    #: True when :meth:`run` reads the call graph (built only if asked)
    uses_graph: bool = False

    def applies_to(self, path: str) -> bool:
        """Path-level scoping; ``path`` is repo-relative posix."""
        parts = set(Path(path).parts)
        if parts & self.exempt_parts:
            return False
        if self.only_parts and not (parts & self.only_parts):
            return False
        return True

    def run(
        self, contexts: dict[str, ModuleContext], graph: CallGraph | None
    ) -> Iterator[Finding]:
        """Yield this rule's findings over the modules in its scope.

        The default visits every node of a declared ``node_types`` type
        in every module; whole-module and whole-program rules override
        it.  ``graph`` (None unless the rule ``uses_graph``) spans every
        module of the run.
        """
        for ctx in contexts.values():
            for node in ast.walk(ctx.tree):
                if isinstance(node, self.node_types):
                    yield from self.visit(node, ctx)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one matched node (rule-specific)."""
        raise NotImplementedError

    def finding(
        self, path: str, line: int, message: str, chain: tuple[str, ...] = ()
    ) -> Finding:
        """Construct a finding bound to this rule."""
        return Finding(
            rule_id=self.id,
            severity=self.severity,
            path=path,
            line=line,
            message=message,
            fix_hint=self.fix_hint,
            chain=chain,
        )


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Bare names of the types an ``except`` clause catches (``[]`` for
    a bare ``except:``)."""
    if handler.type is None:
        return []
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [chain.rsplit(".", 1)[-1] for t in types if (chain := dotted_name(t))]


def classify_call(node: ast.AST) -> tuple[str, str] | None:
    """``(dotted name, kind)`` when ``node`` calls a function of
    :data:`TIME_AND_RANDOM` by its module path, else None (references
    such as ``clock=time.monotonic`` are not calls)."""
    if not isinstance(node, ast.Call):
        return None
    chain = dotted_name(node.func)
    kind = TIME_AND_RANDOM.get(chain) if chain is not None else None
    return None if kind is None else (chain, kind)


def classify_imports(node: ast.ImportFrom) -> list[tuple[str, str]]:
    """``(imported name, kind)`` for each :data:`TIME_AND_RANDOM`
    function a ``from time/random import ...`` binds, in source order."""
    return [
        (alias.name, kind)
        for alias in node.names
        if (kind := TIME_AND_RANDOM.get(f"{node.module}.{alias.name}"))
    ]


def iter_python_files(paths: Iterable[str | Path], *, root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, excluded dirs pruned.

    Explicitly named files are always yielded — that is how tests point
    the engine at fixture-corpus files that the implicit walk skips.
    """
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = root / path
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            relative = candidate.relative_to(path)
            if any(part in EXCLUDED_DIR_NAMES for part in relative.parts[:-1]):
                continue
            yield candidate


def _read_sources(
    paths: Iterable[str | Path], root: Path
) -> Iterator[tuple[str, str]]:
    """``(repo-relative path, source)`` for every readable file; files
    outside ``root`` keep their absolute path."""
    for file_path in iter_python_files(paths, root=root):
        try:
            relative = file_path.relative_to(root).as_posix()
        except ValueError:
            relative = file_path.as_posix()
        try:
            yield relative, file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            continue


def check(
    paths: Iterable[str | Path],
    rules: Iterable[Rule],
    *,
    root: Path | None = None,
    sources: dict[str, str] | None = None,
) -> list[Finding]:
    """Run ``rules`` over every Python file under ``paths`` plus the
    in-memory ``sources`` (``{repo-relative path: source}``).

    ``root`` anchors repo-relative finding paths (defaults to the
    current working directory).  Files that do not parse become
    ``syntax-error`` findings, and pragmas naming no rule
    ``unknown-disable`` ones.  Every rule runs once over all parsed
    modules in its scope; the call graph is built once, over all of
    them, when some rule ``uses_graph``.  Findings come back scoped,
    unsuppressed and sorted.
    """
    anchor = Path.cwd() if root is None else Path(root)
    contexts: dict[str, ModuleContext] = {}
    findings: list[Finding] = []
    for path, source in [*_read_sources(paths, anchor), *(sources or {}).items()]:
        if path in contexts:
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule_id="syntax-error",
                    severity="error",
                    path=path,
                    line=exc.lineno or 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        contexts[path] = ModuleContext(path, source, tree)
    rules = list(rules)
    from repro.analysis.rules import RULES  # which imports this module

    known = {rule.id for rule in [*RULES, *rules]} | {"all"}
    for ctx in contexts.values():
        findings.extend(
            Finding(
                "unknown-disable", "error", ctx.path, line, f"disable names no rule: {rule_id}",
                fix_hint="drop the id, or name one 'python -m repro.analysis rules' lists",
            )
            for line, rule_id in ctx.disables
            if rule_id not in known
        )
    graph = None
    if any(rule.uses_graph for rule in rules):
        from repro.analysis.callgraph import ModuleSource, build_call_graph

        graph = build_call_graph(
            ModuleSource(path=ctx.path, tree=ctx.tree) for ctx in contexts.values()
        )
    for rule in rules:
        scoped = {path: ctx for path, ctx in contexts.items() if rule.applies_to(path)}
        for finding in rule.run(scoped, graph):
            ctx = contexts.get(finding.path)
            if not rule.applies_to(finding.path) or (
                ctx is not None and ctx.is_suppressed(rule.id, finding.line)
            ):
                continue
            findings.append(finding)
    return sort_findings(findings)
