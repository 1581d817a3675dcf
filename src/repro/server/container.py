"""Service container: the registry + per-entry execution core.

Shared by both scheduling policies of the server.  Given one request
body entry, :meth:`ServiceContainer.execute_entry` resolves its
operation (one look-up), decodes it, runs the operation, and returns a
response element — or a Fault element for that entry alone, which
matters in packed mode where one bad request must not poison its
siblings.

Deploying a service binds one :class:`OperationRecord` per operation:
the sketch ``operation.<namespace>#<operation>.seconds``, the counter
``operation.<namespace>#<operation>.faults``, and the off-CPU slot the
staged server places packs by.  The server records every executed
entry into them.  Only a deployed operation has one, so a request
naming anything else adds no row and no state.
"""

from __future__ import annotations

import threading
from types import MappingProxyType

from repro.errors import ServiceError
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.soap.constants import REQUEST_ID_ATTR
from repro.soap.deserializer import OperationMatcher, parse_rpc_request
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.serializer import serialize_rpc_response
from repro.server.service import ServiceDefinition
from repro.xmlcore.tree import Element


def entry_fault(entry: Element, fault: SoapFault) -> Element:
    """``fault`` rendered as the response slot for ``entry``.

    Copies the SPI ``requestID`` so the client dispatcher can correlate
    the per-entry fault — the mechanism behind partial-success packs
    (one bad/late entry faults its own slot, siblings still answer).
    """
    element = fault.to_element()
    request_id = entry.get(REQUEST_ID_ATTR)
    if request_id is not None:
        element.set(REQUEST_ID_ATTR, request_id)
    return element


class OperationRecord:
    """One deployed operation's row, bound once by
    :meth:`ServiceContainer.deploy`.

    ``off_cpu_s`` is the wall time minus the thread CPU time its last
    run on an application-stage worker took, clamped at 0; ``None``
    until it has run there, and again once an inline pack holding it
    waited (see :meth:`~repro.server.soap_server.SoapServer._execute`).
    """

    __slots__ = ("seconds", "faults", "off_cpu_s")

    def __init__(self, seconds: QuantileSketch, faults: Counter) -> None:
        self.seconds = seconds
        self.faults = faults
        self.off_cpu_s: float | None = None


class ServiceContainer:
    """All services deployed in one server process.

    The travel-agent evaluation (§4.3) relies on "the airline services
    [being] in one service container" — this is that container.
    """

    def __init__(
        self,
        services: list[ServiceDefinition] | None = None,
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """``registry``: where ``container.faults`` counts entries whose
        execution faulted (the container's own when none is given)."""
        self._services: dict[str, ServiceDefinition] = {}
        self._matcher = OperationMatcher()
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._faults = self.registry.counter("container.faults")
        # Clark tag -> record, written only by deploy; readers get the
        # live read-only view
        self._operation_metrics: dict[str, OperationRecord] = {}
        self.operation_metrics = MappingProxyType(self._operation_metrics)
        for service in services or []:
            self.deploy(service)

    def deploy(self, service: ServiceDefinition) -> None:
        """Register a service and bind its operations' records; its
        namespace must be unused."""
        namespace = service.namespace
        with self._lock:
            if namespace in self._services:
                raise ServiceError(
                    f"a service is already deployed at namespace '{namespace}'"
                )
            self._services[namespace] = service
            for operation in service.operation_names():
                self._matcher.register(namespace, operation, service)
                self._operation_metrics[f"{{{namespace}}}{operation}"] = OperationRecord(
                    self.registry.sketch(f"operation.{namespace}#{operation}.seconds"),
                    self.registry.counter(f"operation.{namespace}#{operation}.faults"),
                )

    def service_for(self, namespace: str) -> ServiceDefinition:
        """The service deployed at ``namespace``; raises if absent."""
        with self._lock:
            try:
                return self._services[namespace]
            except KeyError:
                raise ServiceError(
                    f"no service deployed at namespace '{namespace}'"
                ) from None

    def services(self) -> list[ServiceDefinition]:
        """Every deployed service, in deployment order."""
        with self._lock:
            return list(self._services.values())

    @property
    def matcher(self) -> OperationMatcher:
        return self._matcher

    def execute_entry(self, entry: Element) -> Element:
        """Decode, dispatch and execute one request entry.

        Always returns an element: an ``<opResponse>`` on success, a
        ``<Fault>`` on failure.  The entry's SPI ``requestID`` attribute
        (if present) is copied onto the result so the client dispatcher
        can correlate it.
        """
        request_id = entry.get(REQUEST_ID_ATTR)
        try:
            service = self._matcher.match(entry)
            if service is None:
                raise ClientFaultCause(f"no such operation '{entry.local_name}'")
            request = parse_rpc_request(entry)
            result = service.invoke(request.operation, request.params)
            response = serialize_rpc_response(
                request.namespace, request.operation, result
            )
        except BaseException as exc:
            self._faults.inc()
            response = SoapFault.from_exception(exc).to_element()
        if request_id is not None:
            response.set(REQUEST_ID_ATTR, request_id)
        return response
