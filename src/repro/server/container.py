"""Service container: the registry + per-entry execution core.

Shared by both scheduling policies of the server.  Given one request
body entry, :meth:`ServiceContainer.execute_entry` resolves its
operation (one look-up), decodes it, runs the operation, and returns a
response element — or a Fault element for that entry alone, which
matters in packed mode where one bad request must not poison its
siblings.
"""

from __future__ import annotations

import threading

from repro.errors import ServiceError
from repro.obs.registry import MetricsRegistry
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
        for service in services or []:
            self.deploy(service)

    def deploy(self, service: ServiceDefinition) -> None:
        """Register a service; its namespace must be unused."""
        with self._lock:
            if service.namespace in self._services:
                raise ServiceError(
                    f"a service is already deployed at namespace '{service.namespace}'"
                )
            self._services[service.namespace] = service
            for op_name in service.operation_names():
                self._matcher.register(service.namespace, op_name, service)

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
