#!/usr/bin/env python
"""Automatic packing: the paper's future-work feature, working.

Eight application threads make plain blocking calls with no knowledge
of SPI; the AutoPacker transparently coalesces calls that land inside a
time window into single Parallel_Method messages.

Run:  python examples/autopack_demo.py
"""

import threading

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.core import spi_server_handlers
from repro.core.autopack import AutoPacker
from repro.client.proxy import ServiceProxy
from repro.server import HandlerChain, ServerConfig, build_server
from repro.transport import TcpTransport
from repro.client.config import ClientConfig, build_proxy


def main() -> None:
    transport = TcpTransport()
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address=("127.0.0.1", 0), chain=HandlerChain(spi_server_handlers())))
    with server.running() as address:
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=ECHO_NS, service_name="EchoService",
            reuse_connections=True,
        ))

        with AutoPacker(proxy, max_batch=32, max_delay=0.02) as packer:
            results = {}
            lock = threading.Lock()
            barrier = threading.Barrier(8)

            def app_thread(i: int) -> None:
                barrier.wait()
                # ordinary blocking call — no batching code at the call site
                value = packer.call("echo", payload=f"thread-{i}")
                with lock:
                    results[i] = value

            threads = [threading.Thread(target=app_thread, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            print("every caller got its own answer back:")
            for i in sorted(results):
                print(f"  thread {i}: {results[i]}")
            print()
            print(f"client calls          : {packer.stats.calls}")
            print(f"SOAP messages flushed : {packer.stats.flushes}")
            print(f"mean batch size       : {packer.stats.mean_batch_size:.1f}")
            messages = server.registry.snapshot()["counters"]["soap.messages"]
            print(f"server message count  : {messages}")

        proxy.close()


if __name__ == "__main__":
    main()
