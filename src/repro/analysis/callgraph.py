"""Project-wide call-graph construction for interprocedural analyses.

The per-module rules of :mod:`repro.analysis.rules` see one file at a
time; the invariants PR-8/PR-9 introduced are *transitive* ("nothing
reachable from the event loop may block", "no helper anywhere may feed
a wall-clock read into rollup code").  This module builds the structure
those analyses walk: one :class:`FunctionNode` per function or method
in the analyzed tree, and :class:`CallEdge`\\ s between them.

Resolution is deliberately heuristic — Python has no static dispatch —
and leans *unsound-but-useful*, in this order of confidence:

1. **Imports.**  ``import repro.x as y`` / ``from repro.x import f``
   bind local aliases; sibling modules resolve without their package
   prefix (fixture corpora import each other bare).
2. **Lexical scope.**  ``f()`` resolves to the module's own ``def f``,
   an import alias, or a nested function of the enclosing def.
3. **``self.`` dispatch.**  ``self.m()`` resolves through the method
   table of the enclosing class and its project-known bases;
   ``self.attr.m()`` goes through *instance bindings* harvested from
   ``self.attr = ClassName(...)`` assignments anywhere in the class.
4. **Annotations.**  ``def f(conn: ConnectionState)`` and
   ``x: Stage = ...`` type the receiver precisely; so does assigning
   the result of a call whose target carries a class return annotation
   (``slot = conn.open_slot(...)``).
5. **Assignment aliasing.**  ``handler = self._handle; handler()``
   follows the local alias (flow-insensitive: last binding wins only
   in the sense that *all* bindings contribute edges).
6. **Unique-name dispatch.**  An unresolved ``obj.m()`` falls back to
   the one class in the whole project defining method ``m`` — precise
   exactly when the name is distinctive, silent otherwise.

Constructor calls edge into ``__init__``; ``ClassName(...)`` also
types whatever it is assigned to.  Attribute *loads* that resolve to a
``@property`` method on a typed receiver become call edges (the loop
reads ``conn.finished``; the property body must obey loop rules too).

Function *references* that escape as call arguments
(``stage.submit(self._handle)``, ``Thread(target=self._run)``)
are recorded as edges of kind ``"ref"``: the target runs *eventually,
usually on another thread*, so blocking-fact propagation ignores them
while reachability-style consumers may opt in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterable, Iterator

from repro.analysis.engine import dotted_name

#: Edge kinds: a synchronous call vs. an escaped function reference
#: (submitted/threaded/stored — runs later, usually on another thread).
KIND_CALL = "call"
KIND_REF = "ref"

#: Method names too generic for unique-name dispatch even when only one
#: project class currently defines them — a coincidental match would
#: wire unrelated subsystems together.
_DUCK_BLOCKLIST = frozenset(
    {
        "get",
        "set",
        "put",
        "add",
        "pop",
        "close",
        "open",
        "read",
        "write",
        "send",
        "recv",
        "run",
        "start",
        "stop",
        "join",
        "wait",
        "acquire",
        "release",
        "items",
        "keys",
        "values",
        "update",
        "append",
        "clear",
        "copy",
        "format",
        "encode",
        "decode",
        "split",
        "strip",
        "replace",
    }
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a repo-relative posix path.

    ``src/repro/http/evented.py`` → ``repro.http.evented``; paths not
    under ``src`` use their full relative shape
    (``callgraph/loop_pos/evented.py`` → ``callgraph.loop_pos.evented``)
    so fixture corpora get stable, import-resolvable names.
    """
    parts = list(PurePosixPath(path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    parts[-1] = leaf
    if leaf == "__init__":
        parts = parts[:-1]
    return ".".join(part for part in parts if part)


@dataclass(slots=True)
class FunctionNode:
    """One function or method in the analyzed project."""

    qualname: str  # "repro.http.evented.EventedHttpServer._dispatch"
    module: str
    path: str
    line: int
    name: str  # bare name
    cls: str | None  # enclosing class name, or None
    node: ast.AST  # the FunctionDef/AsyncFunctionDef
    is_property: bool = False

    @property
    def short(self) -> str:
        """Human-readable label: ``Class.method`` or ``function``."""
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass(slots=True, frozen=True)
class CallEdge:
    """One resolved call (or escaped reference) site."""

    caller: str
    callee: str
    line: int
    kind: str  # KIND_CALL | KIND_REF


@dataclass(slots=True)
class ClassInfo:
    """Per-class method table, base names, and instance-attr bindings."""

    qualname: str
    module: str
    name: str
    line: int
    bases: list[str] = field(default_factory=list)  # resolved or bare names
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    #: self.attr -> class qualnames it is bound to (``self._stage = Stage(...)``)
    attr_instances: dict[str, set[str]] = field(default_factory=dict)
    #: self.attr -> function qualnames it is bound to (``self._cb = self._handle``)
    attr_functions: dict[str, set[str]] = field(default_factory=dict)


@dataclass(slots=True)
class ModuleInfo:
    """Per-module import aliases and top-level definitions."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> dotted target ("fault" -> "repro.soap.fault",
    #: "SoapFault" -> "repro.soap.fault.SoapFault", "time" -> "time")
    import_aliases: dict[str, str] = field(default_factory=dict)


class CallGraph:
    """The assembled project graph plus its resolution indexes."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.modules: dict[str, ModuleInfo] = {}
        self.edges: list[CallEdge] = []
        self._out: dict[str, list[CallEdge]] = {}
        self._in: dict[str, list[CallEdge]] = {}
        #: bare class name -> ClassInfo list (cross-module base lookup)
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        #: method name -> defining class qualnames (unique-name dispatch)
        self._method_classes: dict[str, list[str]] = {}
        self._edge_seen: set[tuple[str, str, int, str]] = set()

    # -- construction-side indexing ------------------------------------

    def add_function(self, node: FunctionNode) -> None:
        """Register one function definition."""
        self.functions[node.qualname] = node

    def add_class(self, info: ClassInfo) -> None:
        """Register one class definition."""
        self.classes[info.qualname] = info
        self._classes_by_name.setdefault(info.name, []).append(info)

    def add_edge(self, caller: str, callee: str, line: int, kind: str) -> None:
        """Record a resolved edge; unknown endpoints are dropped."""
        if callee not in self.functions or caller not in self.functions:
            return
        key = (caller, callee, line, kind)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        edge = CallEdge(caller, callee, line, kind)
        self.edges.append(edge)
        self._out.setdefault(caller, []).append(edge)
        self._in.setdefault(callee, []).append(edge)

    def finish(self) -> None:
        """Build post-construction indexes (unique-name dispatch table)."""
        self._method_classes.clear()
        for info in self.classes.values():
            for method in info.methods:
                self._method_classes.setdefault(method, []).append(info.qualname)

    # -- lookups --------------------------------------------------------

    def edges_out(self, qualname: str, kinds: Iterable[str] = (KIND_CALL,)) -> list[CallEdge]:
        """Edges leaving ``qualname``, filtered by kind."""
        wanted = set(kinds)
        return [e for e in self._out.get(qualname, ()) if e.kind in wanted]

    def edges_in(self, qualname: str, kinds: Iterable[str] = (KIND_CALL,)) -> list[CallEdge]:
        """Edges arriving at ``qualname``, filtered by kind."""
        wanted = set(kinds)
        return [e for e in self._in.get(qualname, ()) if e.kind in wanted]

    def class_named(self, name: str) -> ClassInfo | None:
        """The single project class with this bare name, else None."""
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_method(self, class_qualname: str, method: str) -> str | None:
        """``method`` on the class or (breadth-first) its known bases."""
        seen: set[str] = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            found = info.methods.get(method)
            if found is not None:
                return found
            for base in info.bases:
                if base in self.classes:
                    queue.append(base)
                else:
                    resolved = self.class_named(base.rsplit(".", 1)[-1])
                    if resolved is not None:
                        queue.append(resolved.qualname)
        return None

    def duck_dispatch(self, method: str) -> str | None:
        """Unique-name fallback: the one class defining ``method``."""
        if method.startswith("__") or method in _DUCK_BLOCKLIST:
            return None
        owners = self._method_classes.get(method, [])
        if len(owners) != 1:
            return None
        return self.classes[owners[0]].methods[method]


# -- builder -------------------------------------------------------------


def walk_own(root: ast.AST) -> Iterator[ast.AST]:
    """Like :func:`ast.walk` but does not descend into nested function
    or class definitions — those are separate graph nodes."""
    queue: list[ast.AST] = [root]
    while queue:
        node = queue.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            queue.append(child)


def _annotation_class_name(annotation: ast.expr | None) -> str | None:
    """The bare class name of a simple annotation, if any.

    Handles ``Foo``, ``mod.Foo``, string annotations, and unwraps one
    level of ``Optional[Foo]`` / ``Foo | None``.
    """
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value.strip()
        for splitter in ("|",):
            if splitter in text:
                halves = [h.strip() for h in text.split(splitter)]
                halves = [h for h in halves if h not in ("None", "")]
                text = halves[0] if len(halves) == 1 else text
        if text.replace(".", "").replace("_", "").isalnum():
            return text.rsplit(".", 1)[-1]
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        left = _annotation_class_name(annotation.left)
        right = _annotation_class_name(annotation.right)
        candidates = [c for c in (left, right) if c is not None and c != "None"]
        return candidates[0] if len(candidates) == 1 else None
    if isinstance(annotation, ast.Subscript):
        container = dotted_name(annotation.value)
        if container is not None and container.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class_name(annotation.slice)
        return None
    chain = dotted_name(annotation)
    if chain is None or chain == "None":
        return None
    return chain.rsplit(".", 1)[-1]


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


class _ModuleCollector:
    """Pass 1: functions, classes and nested defs of one module."""

    def __init__(self, graph: CallGraph, info: ModuleInfo) -> None:
        self.graph = graph
        self.info = info

    def collect(self) -> None:
        for node in self.info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_function(node, prefix=self.info.name, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)

    def _collect_class(self, node: ast.ClassDef) -> None:
        qualname = f"{self.info.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=self.info.name,
            name=node.name,
            line=node.lineno,
        )
        for base in node.bases:
            chain = dotted_name(base)
            if chain is None:
                continue
            head, _, rest = chain.partition(".")
            target = self.info.import_aliases.get(head)
            if target is not None:
                info.bases.append(f"{target}.{rest}" if rest else target)
            elif "." not in chain:
                local = f"{self.info.name}.{chain}"
                info.bases.append(local)
            else:
                info.bases.append(chain)
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_qualname = f"{qualname}.{statement.name}"
                info.methods[statement.name] = method_qualname
                self._collect_function(statement, prefix=qualname, cls=node.name)
        self.graph.add_class(info)

    def _collect_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        *,
        prefix: str,
        cls: str | None,
    ) -> None:
        qualname = f"{prefix}.{node.name}"
        is_property = any(
            (dotted_name(d) or "").rsplit(".", 1)[-1] in ("property", "cached_property")
            for d in node.decorator_list
        )
        self.graph.add_function(
            FunctionNode(
                qualname=qualname,
                module=self.info.name,
                path=self.info.path,
                line=node.lineno,
                name=node.name,
                cls=cls,
                node=node,
                is_property=is_property,
            )
        )
        # nested defs become their own nodes (escaped-closure pattern:
        # ``def run(...)`` submitted to a stage)
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if getattr(child, "_repro_cg_seen", False):
                    continue
                child._repro_cg_seen = True  # type: ignore[attr-defined]
                self._collect_function(child, prefix=qualname, cls=cls)


class _FunctionResolver(ast.NodeVisitor):
    """Pass 3: emit edges for one function body."""

    def __init__(
        self,
        graph: CallGraph,
        fn: FunctionNode,
        module: ModuleInfo,
        *,
        collect_only_bindings: bool = False,
    ) -> None:
        self.graph = graph
        self.fn = fn
        self.module = module
        self.collect_only_bindings = collect_only_bindings
        self.self_name: str | None = None
        node = fn.node
        if fn.cls is not None and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            arguments = node.args.posonlyargs + node.args.args
            is_static = any(
                (dotted_name(d) or "").rsplit(".", 1)[-1] == "staticmethod"
                for d in node.decorator_list
            )
            if arguments and not is_static:
                self.self_name = arguments[0].arg
        #: local name -> ("instance", class_qualname) | ("func", qualname)
        self.locals: dict[str, tuple[str, str]] = {}
        self._seed_annotations()

    # -- environment -----------------------------------------------------

    def _seed_annotations(self) -> None:
        node = self.fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        arguments = (
            node.args.posonlyargs
            + node.args.args
            + node.args.kwonlyargs
        )
        for argument in arguments:
            class_name = _annotation_class_name(argument.annotation)
            if class_name is None:
                continue
            resolved = self._resolve_class_name(class_name)
            if resolved is not None:
                self.locals[argument.arg] = ("instance", resolved)

    def _resolve_class_name(self, name: str) -> str | None:
        """A bare class name to its qualname: local module, imports,
        then the project-unique class of that name."""
        local = f"{self.module.name}.{name}"
        if local in self.graph.classes:
            return local
        imported = self.module.import_aliases.get(name)
        if imported is not None and imported in self.graph.classes:
            return imported
        info = self.graph.class_named(name)
        return info.qualname if info is not None else None

    def _enclosing_class(self) -> ClassInfo | None:
        if self.fn.cls is None:
            return None
        return self.graph.classes.get(f"{self.fn.module}.{self.fn.cls}")

    def _resolve_name_target(self, name: str) -> tuple[str, str] | None:
        """What a bare Name refers to: a local binding, a module-level
        function, an imported function, a class, or a nested def."""
        bound = self.locals.get(name)
        if bound is not None:
            return bound
        # nested function of this very function
        nested = f"{self.fn.qualname}.{name}"
        if nested in self.graph.functions:
            return ("func", nested)
        module_level = f"{self.module.name}.{name}"
        if module_level in self.graph.functions:
            return ("func", module_level)
        if module_level in self.graph.classes:
            return ("class", module_level)
        imported = self.module.import_aliases.get(name)
        if imported is not None:
            if imported in self.graph.functions:
                return ("func", imported)
            if imported in self.graph.classes:
                return ("class", imported)
            if imported in self.graph.modules:
                return ("module", imported)
            # sibling-module fallback: fixture corpora import each
            # other without the package prefix
            package = self.module.name.rsplit(".", 1)[0]
            sibling = f"{package}.{imported}"
            if sibling in self.graph.functions:
                return ("func", sibling)
            if sibling in self.graph.classes:
                return ("class", sibling)
            if sibling in self.graph.modules:
                return ("module", sibling)
        if name in self.graph.modules:
            return ("module", name)
        return None

    def _resolve_value(self, node: ast.expr) -> tuple[str, str] | None:
        """Resolve an expression to ("func"|"class"|"instance"|"module", qualname)."""
        if isinstance(node, ast.Name):
            return self._resolve_name_target(node.id)
        if isinstance(node, ast.Attribute):
            # self.attr → class-attr binding or method reference
            receiver_class = self._receiver_class(node.value)
            if receiver_class is not None:
                info = self.graph.classes.get(receiver_class)
                if info is not None:
                    functions = info.attr_functions.get(node.attr)
                    if functions:
                        return ("func", next(iter(sorted(functions))))
                    instances = info.attr_instances.get(node.attr)
                    if instances:
                        return ("instance", next(iter(sorted(instances))))
                method = self.graph.resolve_method(receiver_class, node.attr)
                if method is not None:
                    return ("func", method)
                return None
            chain = dotted_name(node)
            if chain is None:
                return None
            head, _, rest = chain.partition(".")
            base = self._resolve_name_target(head)
            if base is None:
                return None
            kind, target = base
            if not rest:
                return base
            if kind == "module":
                candidate = f"{target}.{rest}"
                if candidate in self.graph.functions:
                    return ("func", candidate)
                if candidate in self.graph.classes:
                    return ("class", candidate)
                if candidate in self.graph.modules:
                    return ("module", candidate)
                return None
            if kind in ("class", "instance") and "." not in rest:
                method = self.graph.resolve_method(target, rest)
                if method is not None:
                    return ("func", method)
            return None
        if isinstance(node, ast.Call):
            resolved = self._resolve_value(node.func)
            if resolved is None:
                return None
            kind, target = resolved
            if kind == "class":
                return ("instance", target)
            if kind == "func":
                return self._return_type(target)
            return None
        return None

    def _return_type(self, func_qualname: str) -> tuple[str, str] | None:
        fn = self.graph.functions.get(func_qualname)
        if fn is None or not isinstance(
            fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        class_name = _annotation_class_name(fn.node.returns)
        if class_name is None:
            return None
        # resolve in the *callee's* module context
        local = f"{fn.module}.{class_name}"
        if local in self.graph.classes:
            return ("instance", local)
        callee_module = self.graph.modules.get(fn.module)
        if callee_module is not None:
            imported = callee_module.import_aliases.get(class_name)
            if imported is not None and imported in self.graph.classes:
                return ("instance", imported)
        info = self.graph.class_named(class_name)
        return ("instance", info.qualname) if info is not None else None

    def _receiver_class(self, node: ast.expr) -> str | None:
        """The class qualname an expression is an instance of, if known."""
        if isinstance(node, ast.Name):
            if node.id == self.self_name:
                info = self._enclosing_class()
                return info.qualname if info is not None else None
            bound = self.locals.get(node.id)
            if bound is not None and bound[0] == "instance":
                return bound[1]
            return None
        resolved = self._resolve_value(node)
        if resolved is not None and resolved[0] == "instance":
            return resolved[1]
        return None

    # -- binding collection (pass 2) -------------------------------------

    def collect_bindings(self) -> None:
        """Harvest ``self.attr = <func ref | ClassName(...)>`` bindings."""
        info = self._enclosing_class()
        if info is None or self.self_name is None:
            return
        for node in ast.walk(self.fn.node):
            if not isinstance(node, ast.Assign):
                continue
            resolved = self._resolve_value(node.value)
            if resolved is None:
                continue
            kind, target = resolved
            for assign_target in node.targets:
                if (
                    isinstance(assign_target, ast.Attribute)
                    and isinstance(assign_target.value, ast.Name)
                    and assign_target.value.id == self.self_name
                ):
                    if kind == "instance":
                        info.attr_instances.setdefault(
                            assign_target.attr, set()
                        ).add(target)
                    elif kind == "func":
                        info.attr_functions.setdefault(
                            assign_target.attr, set()
                        ).add(target)

    # -- edge emission (pass 3) ------------------------------------------

    def emit(self) -> None:
        self._build_local_env()
        for statement in self.fn.node.body:  # type: ignore[attr-defined]
            self.visit(statement)

    def _build_local_env(self) -> None:
        """Flow-insensitive local aliases: every ``x = <resolvable>``."""
        for node in walk_own(self.fn.node):
            if isinstance(node, ast.Assign):
                resolved = self._resolve_value(node.value)
                if resolved is None or resolved[0] == "module":
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        kind = "instance" if resolved[0] == "class" else resolved[0]
                        if resolved[0] == "class":
                            continue  # ``x = ClassName`` alias: rare, skip
                        self.locals.setdefault(target.id, (kind, resolved[1]))
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                class_name = _annotation_class_name(node.annotation)
                if class_name is not None:
                    resolved_class = self._resolve_class_name(class_name)
                    if resolved_class is not None:
                        self.locals.setdefault(
                            node.target.id, ("instance", resolved_class)
                        )
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                resolved = self._resolve_value(node.context_expr)
                if resolved is not None and resolved[0] == "instance":
                    if isinstance(node.optional_vars, ast.Name):
                        self.locals.setdefault(
                            node.optional_vars.id, ("instance", resolved[1])
                        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is self.fn.node:
            self.generic_visit(node)
        # nested defs are their own FunctionNodes; don't double-walk

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # a lambda body runs in this function for analysis purposes
        self.visit(node.body)

    def visit_Call(self, node: ast.Call) -> None:
        line = node.lineno
        target = self._call_target(node.func)
        if target is not None:
            self.graph.add_edge(self.fn.qualname, target, line, KIND_CALL)
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            resolved = self._resolve_value(value) if not isinstance(
                value, ast.Call
            ) else None
            if resolved is not None and resolved[0] == "func":
                self.graph.add_edge(
                    self.fn.qualname, resolved[1], line, KIND_REF
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # property loads on typed receivers are calls in disguise
        if isinstance(node.ctx, ast.Load):
            receiver_class = self._receiver_class(node.value)
            if receiver_class is not None:
                method = self.graph.resolve_method(receiver_class, node.attr)
                if method is not None:
                    fn = self.graph.functions.get(method)
                    if fn is not None and fn.is_property:
                        self.graph.add_edge(
                            self.fn.qualname, method, node.lineno, KIND_CALL
                        )
        self.generic_visit(node)

    def _call_target(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            resolved = self._resolve_name_target(func.id)
            if resolved is None:
                return None
            kind, target = resolved
            if kind == "func":
                return target
            if kind in ("class", "instance"):
                return self.graph.resolve_method(target, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            # super().m()
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                info = self._enclosing_class()
                if info is not None:
                    for base in info.bases:
                        base_info = self.graph.classes.get(
                            base
                        ) or self.graph.class_named(base.rsplit(".", 1)[-1])
                        if base_info is not None:
                            method = self.graph.resolve_method(
                                base_info.qualname, func.attr
                            )
                            if method is not None:
                                return method
                return None
            receiver_class = self._receiver_class(func.value)
            if receiver_class is not None:
                info = self.graph.classes.get(receiver_class)
                if info is not None:
                    functions = info.attr_functions.get(func.attr)
                    # ``self._cb(...)`` through a stored function ref
                    if functions and func.attr not in info.methods:
                        return next(iter(sorted(functions)))
                return self.graph.resolve_method(receiver_class, func.attr)
            resolved = self._resolve_value(func)
            if resolved is not None and resolved[0] == "func":
                return resolved[1]
            # unique-name fallback
            return self.graph.duck_dispatch(func.attr)
        return None


@dataclass(slots=True)
class ModuleSource:
    """One module handed to the builder."""

    path: str  # repo-relative posix
    tree: ast.Module
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = module_name_for_path(self.path)


def build_call_graph(sources: Iterable[ModuleSource]) -> CallGraph:
    """Assemble the project graph in three passes.

    1. collect every module/class/function definition;
    2. harvest ``self.attr`` bindings (needs the full def table);
    3. resolve call sites and escaped references into edges.
    """
    graph = CallGraph()
    ordered = list(sources)
    for source in ordered:
        info = ModuleInfo(
            name=source.name,
            path=source.path,
            tree=source.tree,
            import_aliases=_collect_imports(source.tree),
        )
        graph.modules[info.name] = info
    for source in ordered:
        _ModuleCollector(graph, graph.modules[source.name]).collect()
    graph.finish()
    functions = list(graph.functions.values())
    for fn in functions:
        module = graph.modules[fn.module]
        _FunctionResolver(graph, fn, module).collect_bindings()
    for fn in functions:
        module = graph.modules[fn.module]
        _FunctionResolver(graph, fn, module).emit()
    return graph


def iter_reachable(
    graph: CallGraph,
    entries: Iterable[str],
    *,
    kinds: Iterable[str] = (KIND_CALL,),
    barriers: frozenset[str] | set[str] = frozenset(),
) -> dict[str, tuple[str, int] | None]:
    """BFS closure from ``entries``; value = (parent, call line) or None
    for the entries themselves.  Traversal does not descend *into*
    barrier functions (their bodies are vouched for)."""
    parents: dict[str, tuple[str, int] | None] = {}
    queue: list[str] = []
    for entry in entries:
        if entry in graph.functions and entry not in parents:
            parents[entry] = None
            queue.append(entry)
    while queue:
        current = queue.pop(0)
        if current in barriers:
            continue
        for edge in graph.edges_out(current, kinds):
            if edge.callee not in parents:
                parents[edge.callee] = (current, edge.line)
                queue.append(edge.callee)
    return parents


def walk_back(
    links: dict[str, tuple[str | None, object] | None], start: str
) -> list[str]:
    """``start``, then each node ``links[node][0]`` names, until a node
    has no link or the walk would revisit one (the witness chains of
    :func:`iter_reachable` and ``taint.propagate_up``)."""
    chain = [start]
    while (step := links.get(chain[-1])) is not None and step[0] is not None:
        if step[0] in chain:
            break
        chain.append(step[0])
    return chain


def chain_from(
    parents: dict[str, tuple[str, int] | None], qualname: str
) -> list[str]:
    """The entry→…→``qualname`` path recorded by :func:`iter_reachable`."""
    return walk_back(parents, qualname)[::-1]
