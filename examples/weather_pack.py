#!/usr/bin/env python
"""Regenerate the paper's Figure 4: two weather queries in one message.

"Suppose the client wishes to query the weather of Beijing and
Shanghai.  In the traditional model, the client should issue two
service requests in two SOAP messages.  In our approach, two service
requests are packed into one SOAP message."

Run:  python examples/weather_pack.py
"""

from repro.apps.weather import WEATHER_NS, figure4_document, make_weather_service
from repro.core import spi, spi_server_handlers
from repro.server import HandlerChain, ServerConfig, build_server
from repro.transport import TcpTransport


def main() -> None:
    print("=" * 72)
    print("Figure 4 — the packed SOAP request message:")
    print("=" * 72)
    print(figure4_document())
    print()

    transport = TcpTransport()
    server = build_server(ServerConfig(services=[make_weather_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))
    with server.running() as address:
        client = spi.connect(
            transport, address, namespace=WEATHER_NS, service_name="GlobalWeather"
        )
        with client.pack() as batch:
            beijing = batch.call("GetWeather", city="Beijing", country="China")
            shanghai = batch.call("GetWeather", city="Shanghai", country="China")

        print("executed against the local weather service (ONE SOAP message):")
        print(" ", beijing.result())
        print(" ", shanghai.result())
        metrics = server.registry.snapshot()
        print(
            "server message count:",
            metrics["counters"]["soap.messages"],
            "| operations executed:",
            int(metrics["sketches"]["soap.pack_degree"]["sum"]),
        )
        client.close()


if __name__ == "__main__":
    main()
