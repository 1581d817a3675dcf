"""Service definitions: how application code becomes SOAP operations.

Services are plain Python — a class with :func:`operation`-decorated
methods, or bare callables registered on a :class:`ServiceDefinition`.
Nothing here knows about packing: the paper's claim that SPI "requires
no change to services code" holds because packing happens in handlers
below this layer.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

from repro.errors import ServiceError
from repro.soap.fault import ClientFaultCause
from repro.soap.xsdtypes import python_type_to_xsd
from repro.wsdl.model import WsdlOperation, WsdlService
from repro.xmlcore.qname import is_ncname

_OPERATION_MARKER = "_repro_operation"


def operation(func: Callable | None = None, *, name: str | None = None):
    """Mark a method as a SOAP operation.

    Usable bare (``@operation``) or with an explicit wire name
    (``@operation(name="GetWeather")``).
    """

    def mark(f: Callable) -> Callable:
        setattr(f, _OPERATION_MARKER, name or f.__name__)
        return f

    return mark(func) if func is not None else mark


class ServiceDefinition:
    """A named, namespaced bundle of operations."""

    def __init__(self, name: str, namespace: str) -> None:
        if not is_ncname(name):
            raise ServiceError(f"'{name}' is not a valid service name")
        if not namespace:
            raise ServiceError("service namespace must be non-empty")
        self.name = name
        self.namespace = namespace
        # wire name -> (callable, its signature, computed once at deploy)
        self._operations: dict[str, tuple[Callable[..., Any], inspect.Signature]] = {}

    # -- registration -----------------------------------------------------

    def register(self, op_name: str, func: Callable[..., Any]) -> None:
        """Bind a callable to a wire operation name."""
        if not is_ncname(op_name):
            raise ServiceError(f"'{op_name}' is not a valid operation name")
        if op_name in self._operations:
            raise ServiceError(f"operation '{op_name}' already registered on {self.name}")
        self._operations[op_name] = (func, inspect.signature(func))

    def operation_names(self) -> tuple[str, ...]:
        """Registered operation names, in registration order."""
        return tuple(self._operations)

    # -- execution -------------------------------------------------------------

    def invoke(self, op_name: str, params: Mapping[str, Any]) -> Any:
        """Execute one operation with keyword parameters (see :meth:`bound`);
        an unknown operation is the caller's fault: a Client fault."""
        if op_name not in self._operations:
            raise ClientFaultCause(f"service '{self.name}' has no operation '{op_name}'")
        return self.bound(op_name)(params)

    def bound(self, op_name: str) -> Callable[[Mapping[str, Any]], Any]:
        """The registered operation ``op_name`` as one callable of its params.

        A signature mismatch is the caller's fault and surfaces as a
        Client fault; anything raised inside the operation propagates
        for the endpoint to map to a Server fault.  The signature is
        consulted only when the call raises ``TypeError``, to tell a
        mismatch from an error inside.
        """
        func, signature = self._operations[op_name]

        def call(params: Mapping[str, Any]) -> Any:
            try:
                return func(**params)
            except TypeError:
                try:
                    signature.bind(**params)
                except TypeError as exc:
                    raise ClientFaultCause(
                        f"{self.name}.{op_name}: bad parameters: {exc}"
                    ) from None
                raise

        return call

    # -- description -------------------------------------------------------------

    def describe(self, location: str = "") -> WsdlService:
        """Introspect operations into a WSDL service model."""
        ops = []
        for op_name, (func, signature) in self._operations.items():
            params = tuple(
                (
                    pname,
                    python_type_to_xsd(
                        p.annotation if p.annotation is not inspect.Parameter.empty else str
                    ),
                )
                for pname, p in signature.parameters.items()
            )
            returns = python_type_to_xsd(
                signature.return_annotation
                if signature.return_annotation is not inspect.Signature.empty
                else str
            )
            ops.append(
                WsdlOperation(op_name, params, returns, inspect.getdoc(func) or "")
            )
        return WsdlService(
            self.name, self.namespace, tuple(ops), location,
            documentation=f"Service {self.name}",
        )


def service_from_object(
    instance: Any, *, name: str | None = None, namespace: str | None = None
) -> ServiceDefinition:
    """Build a ServiceDefinition from an object's @operation methods.

    Defaults: service name is the class name, namespace is
    ``urn:repro:<ClassName>``.
    """
    cls = type(instance)
    service = ServiceDefinition(
        name or cls.__name__, namespace or f"urn:repro:{cls.__name__}"
    )
    found = False
    for attr_name in dir(instance):
        if attr_name.startswith("_"):
            continue
        member = getattr(instance, attr_name)
        wire_name = getattr(member, _OPERATION_MARKER, None)
        if wire_name is not None and callable(member):
            service.register(wire_name, member)
            found = True
    if not found:
        raise ServiceError(
            f"{cls.__name__} defines no @operation methods"
        )
    return service


def service_from_functions(
    name: str, namespace: str, functions: Mapping[str, Callable[..., Any]]
) -> ServiceDefinition:
    """Build a ServiceDefinition from a mapping of bare callables."""
    service = ServiceDefinition(name, namespace)
    for op_name, func in functions.items():
        service.register(op_name, func)
    return service
