"""Unit tests for service definitions and registration."""

import pytest

from repro.errors import ServiceError
from repro.soap.fault import ClientFaultCause
from repro.soap.serializer import serialize_rpc_request
from repro.server.container import ServiceContainer
from repro.server.service import (
    ServiceDefinition,
    operation,
    service_from_functions,
    service_from_object,
)


class Calculator:
    """Sample service class."""

    @operation
    def add(self, a: int, b: int) -> int:
        """Add two integers."""
        return a + b

    @operation(name="Multiply")
    def mul(self, a: int, b: int) -> int:
        return a * b

    def helper(self):  # not an operation
        return None


class TestServiceDefinition:
    def test_register_and_invoke(self):
        svc = ServiceDefinition("Echo", "urn:echo")
        svc.register("echo", lambda payload: payload)
        assert svc.invoke("echo", {"payload": "x"}) == "x"

    def test_invalid_service_name_raises(self):
        with pytest.raises(ServiceError):
            ServiceDefinition("bad name", "urn:x")

    def test_empty_namespace_raises(self):
        with pytest.raises(ServiceError):
            ServiceDefinition("Svc", "")

    def test_invalid_operation_name_raises(self):
        svc = ServiceDefinition("Svc", "urn:x")
        with pytest.raises(ServiceError):
            svc.register("1bad", lambda: None)

    def test_duplicate_operation_raises(self):
        svc = ServiceDefinition("Svc", "urn:x")
        svc.register("op", lambda: None)
        with pytest.raises(ServiceError, match="already registered"):
            svc.register("op", lambda: None)

    def test_unknown_operation_is_client_fault(self):
        svc = ServiceDefinition("Svc", "urn:x")
        with pytest.raises(ClientFaultCause, match="no operation"):
            svc.invoke("missing", {})

    def test_bad_parameters_is_client_fault(self):
        svc = ServiceDefinition("Svc", "urn:x")
        svc.register("op", lambda a: a)
        with pytest.raises(ClientFaultCause, match="bad parameters"):
            svc.invoke("op", {"wrong": 1})

    def test_service_exception_propagates(self):
        svc = ServiceDefinition("Svc", "urn:x")

        def boom():
            raise RuntimeError("inside")

        svc.register("op", boom)
        with pytest.raises(RuntimeError, match="inside"):
            svc.invoke("op", {})


class TestServiceFromObject:
    def test_discovers_operations(self):
        svc = service_from_object(Calculator())
        assert set(svc.operation_names()) == {"add", "Multiply"}

    def test_default_name_and_namespace(self):
        svc = service_from_object(Calculator())
        assert svc.name == "Calculator"
        assert svc.namespace == "urn:repro:Calculator"

    def test_explicit_name_and_namespace(self):
        svc = service_from_object(Calculator(), name="Calc", namespace="urn:c")
        assert svc.name == "Calc"
        assert svc.namespace == "urn:c"

    def test_invoke_bound_method(self):
        svc = service_from_object(Calculator())
        assert svc.invoke("add", {"a": 2, "b": 3}) == 5
        assert svc.invoke("Multiply", {"a": 2, "b": 3}) == 6

    def test_no_operations_raises(self):
        class Empty:
            pass

        with pytest.raises(ServiceError, match="no @operation"):
            service_from_object(Empty())


class TestServiceFromFunctions:
    def test_build(self):
        svc = service_from_functions(
            "Echo", "urn:echo", {"echo": lambda payload: payload}
        )
        assert svc.invoke("echo", {"payload": "hi"}) == "hi"


class Greeter:
    @operation
    def greet(self, name: str, punct: str = "!") -> str:
        return name + punct


def echo_times(payload: str, times: int = 1) -> str:
    return payload * times


class TestSignatureBoundAtDeploy:
    """``register`` computes each operation's signature once; a mismatch
    is the same Client fault, word for word, as when ``invoke`` rebuilt
    the signature per call (strings recorded before the change)."""

    RECORDED = {
        ("Fn", "missing"): "ClientFaultCause: Fn.echo: bad parameters: "
        "missing a required argument: 'payload'",
        ("Fn", "unexpected"): "ClientFaultCause: Fn.echo: bad parameters: "
        "got an unexpected keyword argument 'bogus'",
        ("Fn", "duplicate"): "ClientFaultCause: duplicate parameter 'payload'",
        ("Greeter", "missing"): "ClientFaultCause: Greeter.greet: bad parameters: "
        "missing a required argument: 'name'",
        ("Greeter", "unexpected"): "ClientFaultCause: Greeter.greet: bad parameters: "
        "got an unexpected keyword argument 'bogus'",
        ("Greeter", "duplicate"): "ClientFaultCause: duplicate parameter 'name'",
    }

    @pytest.fixture(scope="class")
    def container(self):
        return ServiceContainer([
            service_from_functions("Fn", "urn:fn", {"echo": echo_times}),
            service_from_object(Greeter(), namespace="urn:greeter"),  # bound method
        ])

    CASES = {
        "Fn": ("urn:fn", "echo", "payload"),
        "Greeter": ("urn:greeter", "greet", "name"),
    }

    @pytest.mark.parametrize("service", ["Fn", "Greeter"])
    @pytest.mark.parametrize("mismatch", ["missing", "unexpected", "duplicate"])
    def test_client_fault_text_is_unchanged(self, container, service, mismatch):
        namespace, op, required = self.CASES[service]
        params = {} if mismatch == "missing" else {required: "a"}
        if mismatch == "unexpected":
            params["bogus"] = 1
        entry = serialize_rpc_request(namespace, op, params)
        if mismatch == "duplicate":
            entry.append(entry.element_children()[0].copy())
        slot = container.execute_entry(entry)
        assert slot.findtext("faultcode") == "SOAP-ENV:Client"
        assert slot.findtext("faultstring") == self.RECORDED[(service, mismatch)]

    def test_defaults_and_bound_self_still_bind(self, container):
        entry = serialize_rpc_request("urn:greeter", "greet", {"name": "ann"})
        assert container.execute_entry(entry).require("return").text == "ann!"
        entry = serialize_rpc_request("urn:fn", "echo", {"payload": "ab", "times": 2})
        assert container.execute_entry(entry).require("return").text == "abab"

    def test_signature_is_computed_once_at_register(self, monkeypatch):
        import inspect

        svc = service_from_functions("Fn", "urn:fn", {"echo": echo_times})
        calls = []
        real = inspect.signature
        monkeypatch.setattr(inspect, "signature", lambda f: calls.append(f) or real(f))
        for _ in range(3):
            assert svc.invoke("echo", {"payload": "x"}) == "x"
        with pytest.raises(ClientFaultCause, match="bad parameters"):
            svc.invoke("echo", {})
        assert calls == []


class TestDescribe:
    def test_wsdl_model(self):
        svc = service_from_object(Calculator(), namespace="urn:calc")
        model = svc.describe(location="http://host/calc")
        assert model.namespace == "urn:calc"
        assert model.location == "http://host/calc"
        add = model.operation("add")
        assert add.parameters == (("a", "xsd:int"), ("b", "xsd:int"))
        assert add.returns == "xsd:int"
        assert add.documentation == "Add two integers."

    def test_unannotated_params_default_to_string(self):
        svc = ServiceDefinition("S", "urn:s")
        svc.register("op", lambda x: x)
        assert svc.describe().operation("op").parameters == (("x", "xsd:string"),)
