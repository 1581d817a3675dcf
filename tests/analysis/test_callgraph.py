"""Unit tests for whole-program call-graph construction.

Graphs here are built from in-memory sources via :class:`ModuleSource`
so each test states its whole program in a few lines.  The fixture
corpora under ``fixtures/callgraph/`` exercise the same machinery end
to end through the analyses (see ``test_interprocedural.py``).
"""

import ast

from repro.analysis.callgraph import (
    KIND_CALL,
    KIND_REF,
    ModuleSource,
    build_call_graph,
    chain_from,
    iter_reachable,
    module_name_for_path,
)


def graph_of(**modules):
    """Build a graph from ``{"pkg/mod.py": source}`` keyword paths
    (keyword names use ``__`` for ``/``)."""
    sources = []
    for key, source in modules.items():
        path = key.replace("__", "/") + ".py"
        sources.append(ModuleSource(path=path, tree=ast.parse(source)))
    return build_call_graph(sources)


def edge_pairs(graph, kinds=(KIND_CALL,)):
    return {
        (e.caller, e.callee)
        for e in graph.edges
        if e.kind in set(kinds)
    }


class TestModuleNames:
    def test_src_prefix_is_stripped(self):
        assert (
            module_name_for_path("src/repro/http/evented.py")
            == "repro.http.evented"
        )

    def test_non_src_paths_keep_their_shape(self):
        assert (
            module_name_for_path("callgraph/loop_pos/server.py")
            == "callgraph.loop_pos.server"
        )

    def test_package_init_names_the_package(self):
        assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"


class TestResolution:
    def test_module_local_call(self):
        graph = graph_of(m="def f():\n    g()\ndef g():\n    pass\n")
        assert ("m.f", "m.g") in edge_pairs(graph)

    def test_from_import_call(self):
        graph = graph_of(
            a="def helper():\n    pass\n",
            b="from a import helper\ndef f():\n    helper()\n",
        )
        assert ("b.f", "a.helper") in edge_pairs(graph)

    def test_module_import_attribute_call(self):
        graph = graph_of(
            a="def helper():\n    pass\n",
            b="import a\ndef f():\n    a.helper()\n",
        )
        assert ("b.f", "a.helper") in edge_pairs(graph)

    def test_sibling_module_fallback_for_package_relative_imports(self):
        # fixture corpora import each other without the package prefix;
        # the resolver falls back to siblings of the importing module
        graph = graph_of(
            pkg__util="def helper():\n    pass\n",
            pkg__main="from util import helper\ndef f():\n    helper()\n",
        )
        assert ("pkg.main.f", "pkg.util.helper") in edge_pairs(graph)

    def test_self_method_dispatch(self):
        graph = graph_of(
            m="class C:\n    def f(self):\n        self.g()\n"
            "    def g(self):\n        pass\n"
        )
        assert ("m.C.f", "m.C.g") in edge_pairs(graph)

    def test_inherited_method_dispatch(self):
        graph = graph_of(
            m="class Base:\n    def g(self):\n        pass\n"
            "class C(Base):\n    def f(self):\n        self.g()\n"
        )
        assert ("m.C.f", "m.Base.g") in edge_pairs(graph)

    def test_constructor_edges_into_init(self):
        graph = graph_of(
            m="class C:\n    def __init__(self):\n        pass\n"
            "def f():\n    C()\n"
        )
        assert ("m.f", "m.C.__init__") in edge_pairs(graph)

    def test_self_attr_instance_binding(self):
        # self._stage = Stage() in one method types self._stage.submit()
        # everywhere in the class
        graph = graph_of(
            m="class Stage:\n    def submit(self, fn):\n        pass\n"
            "class S:\n"
            "    def start(self):\n        self._stage = Stage()\n"
            "    def go(self):\n        self._stage.submit(None)\n"
        )
        assert ("m.S.go", "m.Stage.submit") in edge_pairs(graph)

    def test_parameter_annotation_types_the_receiver(self):
        graph = graph_of(
            m="class Conn:\n    def flush(self):\n        pass\n"
            "def f(conn: Conn):\n    conn.flush()\n"
        )
        assert ("m.f", "m.Conn.flush") in edge_pairs(graph)

    def test_return_annotation_types_the_result(self):
        graph = graph_of(
            m="class Slot:\n    def fire(self):\n        pass\n"
            "class S:\n"
            "    def _new_slot(self) -> Slot:\n        return Slot()\n"
            "    def go(self):\n        slot = self._new_slot()\n"
            "        slot.fire()\n"
        )
        assert ("m.S.go", "m.Slot.fire") in edge_pairs(graph)

    def test_local_assignment_alias_to_bound_method(self):
        graph = graph_of(
            m="class C:\n"
            "    def f(self):\n        h = self.g\n        h()\n"
            "    def g(self):\n        pass\n"
        )
        assert ("m.C.f", "m.C.g") in edge_pairs(graph)

    def test_function_reference_argument_is_a_ref_edge(self):
        graph = graph_of(
            m="class Stage:\n    def submit(self, fn):\n        pass\n"
            "class S:\n"
            "    def start(self):\n        self._stage = Stage()\n"
            "    def go(self):\n        self._stage.submit(self.work)\n"
            "    def work(self):\n        pass\n"
        )
        assert ("m.S.go", "m.S.work") in edge_pairs(graph, kinds=(KIND_REF,))
        assert ("m.S.go", "m.S.work") not in edge_pairs(graph, kinds=(KIND_CALL,))

    def test_property_load_is_a_call_edge(self):
        graph = graph_of(
            m="class Conn:\n"
            "    @property\n"
            "    def finished(self):\n        return True\n"
            "def f(conn: Conn):\n    return conn.finished\n"
        )
        assert ("m.f", "m.Conn.finished") in edge_pairs(graph)

    def test_super_call_resolves_to_first_base(self):
        graph = graph_of(
            m="class Base:\n    def close(self):\n        pass\n"
            "class C(Base):\n"
            "    def close(self):\n        super().close()\n"
        )
        assert ("m.C.close", "m.Base.close") in edge_pairs(graph)

    def test_nested_function_is_its_own_node(self):
        graph = graph_of(
            m="def outer():\n"
            "    def inner():\n        pass\n"
            "    inner()\n"
        )
        assert "m.outer.inner" in graph.functions
        assert ("m.outer", "m.outer.inner") in edge_pairs(graph)

    def test_unique_name_duck_dispatch(self):
        # exactly one project class defines the method name -> resolved
        # even with an untyped receiver
        graph = graph_of(
            m="class Sketch:\n    def observe_latency(self, v):\n        pass\n"
            "def f(sink):\n    sink.observe_latency(1)\n"
        )
        assert ("m.f", "m.Sketch.observe_latency") in edge_pairs(graph)

    def test_ambiguous_duck_dispatch_stays_unresolved(self):
        graph = graph_of(
            m="class A:\n    def observe_latency(self, v):\n        pass\n"
            "class B:\n    def observe_latency(self, v):\n        pass\n"
            "def f(sink):\n    sink.observe_latency(1)\n"
        )
        assert not edge_pairs(graph)


class TestGraphMeasures:
    def test_reachability_and_chain_terminate_on_cycles(self):
        graph = graph_of(
            m="def a():\n    b()\ndef b():\n    a()\n    c()\ndef c():\n    pass\n"
        )
        parents = iter_reachable(graph, ["m.a"])
        assert set(parents) == {"m.a", "m.b", "m.c"}
        assert chain_from(parents, "m.c") == ["m.a", "m.b", "m.c"]

    def test_barriers_stop_traversal(self):
        graph = graph_of(
            m="def a():\n    b()\ndef b():\n    c()\ndef c():\n    pass\n"
        )
        parents = iter_reachable(graph, ["m.a"], barriers={"m.b"})
        assert set(parents) == {"m.a", "m.b"}
