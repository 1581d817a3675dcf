"""Service-interface model shared by WSDL generation and parsing.

This is the neutral description layer between ``repro.server.service``
(which introspects Python callables) and the WSDL 1.1 document format.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvocationError, WsdlError


@dataclass(frozen=True, slots=True)
class WsdlOperation:
    """One RPC operation: ordered named parameters and one return type.

    Types are prefixed XSD names (``xsd:string``); see
    :func:`repro.soap.xsdtypes.python_type_to_xsd`.
    """

    name: str
    parameters: tuple[tuple[str, str], ...]  # (param name, xsd type)
    returns: str = "xsd:anyType"
    documentation: str = ""

    def parameter_names(self) -> tuple[str, ...]:
        """Parameter names in declaration order."""
        return tuple(name for name, _ in self.parameters)


@dataclass(frozen=True, slots=True)
class WsdlService:
    """A deployable service interface."""

    name: str
    namespace: str
    operations: tuple[WsdlOperation, ...] = ()
    location: str = ""
    documentation: str = ""

    def operation(self, name: str) -> WsdlOperation:
        """The named operation; raises WsdlError if absent."""
        for op in self.operations:
            if op.name == name:
                return op
        raise WsdlError(f"service '{self.name}' has no operation '{name}'")

    def operation_names(self) -> tuple[str, ...]:
        """Operation names in declaration order."""
        return tuple(op.name for op in self.operations)

    def check_call(self, operation: str, params) -> None:
        """Raise InvocationError unless ``operation(**params)`` matches
        this interface: a listed operation, exactly its parameters."""
        try:
            op = self.operation(operation)
        except WsdlError:
            raise InvocationError(
                f"'{operation}' is not an operation of {self.name} "
                f"(WSDL lists: {', '.join(self.operation_names())})"
            ) from None
        expected = set(op.parameter_names())
        if expected != set(params):
            raise InvocationError(
                f"{self.name}.{operation} expects parameters "
                f"{sorted(expected)}, got {sorted(params)}"
            )

    def with_location(self, location: str) -> "WsdlService":
        """Copy of this service bound to a concrete endpoint URL."""
        return WsdlService(
            self.name, self.namespace, self.operations, location, self.documentation
        )


@dataclass(slots=True)
class WsdlDocumentModel:
    """Everything a WSDL 1.1 document carries for one service."""

    service: WsdlService
    soap_action_base: str = ""
    extras: dict[str, str] = field(default_factory=dict)

    @property
    def port_type_name(self) -> str:
        return f"{self.service.name}PortType"

    @property
    def binding_name(self) -> str:
        return f"{self.service.name}SoapBinding"

    @property
    def port_name(self) -> str:
        return f"{self.service.name}Port"

    def soap_action(self, operation: str) -> str:
        """The soapAction URI for one operation."""
        base = self.soap_action_base or self.service.namespace
        return f"{base}#{operation}"
