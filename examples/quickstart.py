#!/usr/bin/env python
"""Quickstart: deploy a service, call it, then pack calls with SPI.

Run:  python examples/quickstart.py
"""

from repro.core import spi, spi_server_handlers
from repro.server import HandlerChain, ServerConfig, build_server, operation, service_from_object
from repro.transport import TcpTransport


class Greeter:
    """A plain Python class; @operation methods become SOAP operations."""

    @operation
    def greet(self, name: str) -> str:
        """Say hello."""
        return f"Hello, {name}!"

    @operation
    def add(self, a: int, b: int) -> int:
        """Add two integers."""
        return a + b


def main() -> None:
    # 1. deploy — the staged (Fig. 2) architecture with SPI pack support
    service = service_from_object(Greeter(), namespace="urn:example:greeter")
    transport = TcpTransport()
    server = build_server(ServerConfig(services=[service], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))

    with server.running() as address:
        print(f"server listening on {address}")

        client = spi.connect(
            transport, address, namespace="urn:example:greeter",
            service_name="Greeter",
        )

        # 2. classic RPC: one SOAP message per call
        print(client.call("greet", name="world"))
        print("2 + 3 =", client.call("add", a=2, b=3))

        # 3. the SPI pack interface: M calls -> ONE SOAP message
        with client.pack() as batch:
            futures = [batch.call("greet", name=f"user-{i}") for i in range(5)]
            sum_future = batch.call("add", a=40, b=2)
        for future in futures:
            print(future.result())
        print("packed add:", sum_future.result())

        metrics = server.registry.snapshot()
        print(
            f"server saw {metrics['counters']['soap.messages']} SOAP messages "
            f"for {metrics['sketches']['soap.pack_degree']['sum']:.0f} operations"
        )
        client.close()


if __name__ == "__main__":
    main()
