#!/usr/bin/env python
"""End-to-end WS-Security: signed clients against a verifying server.

Shows the §4.2 amortization concretely: the serial client signs (and
ships) one ~3.4 KB security header per request, the packed client signs
one header for the whole batch — and the server authenticates every
packed operation from that single token.

Run:  python examples/secure_services.py
"""

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core import spi_server_handlers
from repro.core.batch import PackBatch
from repro.errors import SoapFaultError
from repro.server import HandlerChain, SecurityVerifyHandler, ServerConfig, build_server
from repro.soap.wssecurity import Credentials, security_header_overhead
from repro.transport import TcpTransport
from repro.client.config import ClientConfig, build_proxy

SECRETS = {"alice": b"alice-shared-secret"}


def main() -> None:
    transport = TcpTransport()
    verifier = SecurityVerifyHandler(SECRETS.get, required=True)
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain([verifier, *spi_server_handlers()])))

    alice = Credentials("alice", SECRETS["alice"])
    print(f"security header size: {security_header_overhead(alice)} bytes "
          f"(+{security_header_overhead(alice, include_certificate=True)} with X.509 token)")

    with server.running() as address:
        signed = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
            credentials=alice,
        ))
        anonymous = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
        ))
        mallory = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
            credentials=Credentials("alice", b"wrong-guess"),
        ))

        print("\nsigned single call     :", signed.call("echo", payload="hello, signed"))

        with PackBatch(signed) as batch:
            futures = [batch.call("echo", payload=f"packed-{i}") for i in range(4)]
        print("signed packed batch    :", [f.result() for f in futures])
        print("  (4 operations authenticated by ONE security header)")

        for label, proxy in (("anonymous", anonymous), ("bad secret", mallory)):
            try:
                proxy.call("echo", payload="let me in")
                print(f"{label:>22} : UNEXPECTEDLY ACCEPTED")
            except SoapFaultError as fault:
                print(f"{label:>22} : rejected ({fault.faultstring[:50]}...)")

        print("\nverifier counters      :", verifier.registry.snapshot()["counters"])
        for proxy in (signed, anonymous, mallory):
            proxy.close()


if __name__ == "__main__":
    main()
