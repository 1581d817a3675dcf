"""Figure 1: the common web-service server architecture.

"The thread created in transport layer will complete the functions from
the HTTP parsing to service operation execution.  HTTP parsing, SOAP
parsing and service execution are coupled tightly in the same thread."

That coupling is expressed by the executor: request entries are run
synchronously in the HTTP connection thread, one after another.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.obs.trace import span as obs_span
from repro.server.config import ServerConfig, build_http_server
from repro.server.container import ServiceContainer, entry_fault
from repro.server.endpoint import SoapEndpoint
from repro.soap.fault import timeout_fault
from repro.transport.base import Address
from repro.transport.tcp import TcpTransport
from repro.xmlcore.tree import Element


class CommonSoapServer:
    """One thread per connection doing protocol *and* application work."""

    architecture = "common"

    def __init__(self, config: ServerConfig) -> None:
        if config.transport is None:
            config = config.replace(transport=TcpTransport())
        self.config = config
        observability = config.observability
        self.observability = observability
        self.container = ServiceContainer(
            list(config.services),
            registry=observability.registry if observability is not None else None,
        )
        self.endpoint = SoapEndpoint(
            self.container,
            self._execute,
            chain=config.chain,
            observability=observability,
        )
        self.transport = config.transport
        self.http = build_http_server(self.endpoint, config)

    def _execute(
        self, entries: list[Element], context: MessageContext
    ) -> list[Element]:
        from repro.core.oneway import accepted_response, is_one_way

        # protocol thread == application thread: sequential, in place.
        # One-way entries still execute here (Figure 1 has no other
        # thread to give them to); only their results are discarded.
        deadline = context.deadline
        results = []
        for entry in entries:
            if deadline is not None and deadline.expired():
                # The client's budget is gone; running the entry would
                # only produce an answer nobody is waiting for.  Fault
                # the slot (retryable: the work never ran) and keep any
                # sibling results already computed — partial success.
                results.append(
                    entry_fault(
                        entry,
                        timeout_fault(
                            f"deadline expired before '{entry.local_name}' ran"
                        ),
                    )
                )
                self._count_deadline_expired()
                if self.observability is not None:
                    # never reached the container: account the expiry
                    # into the target's rollup here
                    self.observability.registry.rollup(
                        entry.namespace, entry.local_name
                    ).observe(0.0, "timeout")
                continue
            with obs_span("execute", detail=entry.local_name):
                if is_one_way(entry):
                    self.container.execute_entry(entry)
                    results.append(accepted_response(entry))
                else:
                    results.append(self.container.execute_entry(entry))
        return results

    def _count_deadline_expired(self) -> None:
        if self.observability is not None:
            self.observability.registry.counter("resilience.deadline_expired").inc()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Address:
        """Start the HTTP layer; returns the bound address."""
        return self.http.start()

    def stop(self) -> None:
        """Stop the HTTP layer."""
        self.http.stop()

    @contextlib.contextmanager
    def running(self) -> Iterator[Address]:
        """Context manager: start, yield the bound address, stop."""
        address = self.start()
        try:
            yield address
        finally:
            self.stop()

    @property
    def address(self) -> Address:
        return self.http.address

    def stats(self) -> dict:
        """Endpoint/container/HTTP counters as a dict."""
        return {
            "architecture": self.architecture,
            "endpoint": self.endpoint.stats.snapshot(),
            "container": self.container.stats.snapshot(),
            "connections_accepted": self.http.connections_accepted,
            "requests_served": self.http.requests_served,
        }
