#!/usr/bin/env python
"""SPI remote execution: ship a pipeline of dependent calls server-side.

Packing batches independent calls; remote execution collapses a chain
of DEPENDENT calls (each step consuming an earlier step's result) into
a single round trip.

Run:  python examples/remote_execution.py
"""

from repro.apps.travel import CREDIT_NS, airline_ns, make_airline_service, make_credit_card_service
from repro.core.remote_exec import (
    REMOTE_EXEC_NS,
    REMOTE_EXEC_SERVICE,
    ExecutionPlan,
    RemoteExecutor,
    make_plan_runner_service,
)
from repro.client.proxy import ServiceProxy
from repro.transport import TcpTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy


def main() -> None:
    transport = TcpTransport()
    server = build_server(ServerConfig(services=[make_airline_service("AirChina", 480), make_credit_card_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0)))
    server.container.deploy(make_plan_runner_service(server.container))

    with server.running() as address:
        executor = RemoteExecutor(
            build_proxy(ClientConfig(
                transport, address,
                namespace=REMOTE_EXEC_NS, service_name=REMOTE_EXEC_SERVICE,
            ))
        )

        # reserve a flight and pay for it: two dependent calls, ONE round trip
        plan = ExecutionPlan()
        reserve = plan.step(
            airline_ns("AirChina"),
            "reserveFlight",
            {"flightId": "AirChina-PEK-SHA-0"},
        )
        authorize = plan.step(
            CREDIT_NS, "authorizePayment", {"account": "ACCT-7", "amount": 480}
        )
        plan.step(
            airline_ns("AirChina"),
            "confirmReservation",
            bindings={"reservationId": reserve, "authorizationId": authorize},
        )

        results = executor.execute(plan)
        print("three dependent invocations in one SOAP round trip:")
        print(f"  reservation id : {results[0]}")
        print(f"  authorization  : {results[1]}")
        print(f"  confirmation   : {results[2]}")
        messages = server.registry.snapshot()["counters"]["soap.messages"]
        print(f"server SOAP messages: {messages}")


if __name__ == "__main__":
    main()
