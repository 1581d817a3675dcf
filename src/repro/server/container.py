"""Service container: the registry + per-entry execution core.

Shared by both scheduling policies of the server.  Given one request
body entry, :meth:`ServiceContainer.execute` runs the operation its
record names and returns a response element — or a Fault element for
that entry alone, which matters in packed mode where one bad request
must not poison its siblings.

Deploying a service binds one :class:`OperationRecord` per operation,
keyed by its Clark tag: the service's callable and the response tag,
the sketch ``operation.<namespace>#<operation>.seconds``, the counter
``operation.<namespace>#<operation>.faults``, and the off-CPU slot the
staged server places packs by.  That map is the container's one look-up
of an operation; the server records every executed entry into its row.
Only a deployed operation has one, so a request naming anything else
adds no row and no state.
"""

from __future__ import annotations

import threading
from types import MappingProxyType
from typing import Any, Callable

from repro.errors import ServiceError
from repro.obs.registry import Counter, MetricsRegistry
from repro.obs.sketch import QuantileSketch
from repro.soap.constants import REQUEST_ID_ATTR
from repro.soap.deserializer import DecodedEntry, parse_rpc_request
from repro.soap.fault import ClientFaultCause, SoapFault
from repro.soap.serializer import RESPONSE_SUFFIX, RETURN_TAG, EncodedEntry
from repro.soap.xsdtypes import render_value
from repro.server.service import ServiceDefinition
from repro.xmlcore.qname import qname_of
from repro.xmlcore.tree import Element


def entry_fault(entry: DecodedEntry, fault: SoapFault) -> Element:
    """``fault`` rendered as the response slot for the record ``entry``.

    Copies the SPI ``requestID`` so the client dispatcher can correlate
    the per-entry fault — the mechanism behind partial-success packs
    (one bad/late entry faults its own slot, siblings still answer).
    """
    element = fault.to_element()
    if entry.request_id is not None:
        element.set(REQUEST_ID_ATTR, entry.request_id)
    return element


class OperationRecord:
    """One deployed operation's row, bound once by
    :meth:`ServiceContainer.deploy`: ``invoke(params)`` runs it (see
    :meth:`~repro.server.service.ServiceDefinition.bound`) and
    ``response_tag`` is the Clark tag of its answer.

    ``off_cpu_s`` is the wall time minus the thread CPU time its last
    run on an application-stage worker took, clamped at 0; ``None``
    until it has run there, and again once an inline pack holding it
    waited (see :meth:`~repro.server.soap_server.SoapServer._execute`).
    """

    __slots__ = ("invoke", "response_tag", "seconds", "faults", "off_cpu_s")

    def __init__(
        self, invoke: Callable[[dict], Any], response_tag: str, seconds: QuantileSketch, faults: Counter
    ) -> None:
        self.invoke = invoke
        self.response_tag = response_tag
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
                self._operation_metrics[f"{{{namespace}}}{operation}"] = OperationRecord(
                    service.bound(operation),
                    qname_of(namespace, operation + RESPONSE_SUFFIX).clark,
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
    def matcher(self) -> MappingProxyType:
        """The deployed Clark tags, as ``parse_rpc_request`` checks them."""
        return self.operation_metrics

    def record_of(self, entry: Element) -> DecodedEntry:
        """``entry`` as the record :meth:`execute` runs, its deployed
        operation looked up once: a scanner's record itself, a tree
        entry wrapped (decoded when it runs)."""
        if type(entry) is not DecodedEntry:
            record = DecodedEntry(entry.tag, entry.items(), None)
            record.source = entry
            entry = record
        entry.operation = self._operation_metrics.get(entry.tag)  # repro: disable=lock-discipline — one atomic dict read; deploy adds whole records
        return entry

    def execute(self, entry: DecodedEntry) -> Element:
        """Run one record: an ``<opResponse>`` on success, a ``<Fault>``
        on failure, either carrying the entry's ``requestID`` (if it has
        one) so the client dispatcher can correlate it."""
        operation = entry.operation
        try:
            if operation is None:
                raise ClientFaultCause(f"no such operation '{entry.local_name}'")
            params = entry.decoded if entry.source is None else parse_rpc_request(entry.source).params
            parts: list[str] = []
            render_value(parts, RETURN_TAG, operation.invoke(params))
        except BaseException as exc:
            self._faults.inc()
            return entry_fault(entry, SoapFault.from_exception(exc))
        request_id = entry.request_id
        return EncodedEntry(
            operation.response_tag, parts, () if request_id is None else ((REQUEST_ID_ATTR, request_id),)
        )

    def execute_entry(self, entry: Element) -> Element:
        """:meth:`execute` of a request entry's :meth:`record_of`."""
        return self.execute(self.record_of(entry))
