"""Differential test: both HTTP drivers put the same bytes on the wire.

Every case of ``golden/driver_corpus.json`` — request bytes, expected
response bytes, connection fate — is sent over loopback TCP to a
threaded and to an evented server built with the same options, and both
must answer the committed bytes and leave the connection in the
committed state.  The framer and the request lifecycle are shared; this
is the test that fails when a driver grows behaviour of its own.

``python tests/http/test_driver_parity.py observe threaded|evented``
prints what a backend answers to every case (how the corpus was first
recorded, at the parent commit); ``... write`` re-records the committed
file and refuses when the two backends disagree.
"""

from __future__ import annotations

import json
import pathlib
import socket
import sys
import time

import pytest

from repro.http.compression import CompressionPolicy
from repro.http.evented import EventedHttpServer
from repro.http.message import Headers, HttpResponse
from repro.http.server import HttpServer
from repro.obs.trace import Observability
from repro.server.config import ServerConfig, build_http_server
from repro.transport.tcp import TcpTransport

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "driver_corpus.json"
BACKENDS = {"threaded": HttpServer, "evented": EventedHttpServer}

#: how long a connection must stay silent, once the expected bytes are
#: in, to count as left open
QUIET_S = 0.25


def load_cases() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["cases"]


def request_bytes(case: dict) -> bytes:
    """``send`` is a list of latin-1 strings and ``[text, repeat]`` pairs
    (so a 64 KB pad is five characters of JSON)."""
    return b"".join(
        (part if isinstance(part, str) else part[0] * part[1]).encode("latin-1")
        for part in case["send"]
    )


#: 7 KB that gzip only halves, so the coded body still spans chunks
BIG_BODY = b",".join(b"%d" % (i * i % 9973) for i in range(1500))


def app(request):
    if request.path == "/boom":
        raise RuntimeError("boom")
    body = BIG_BODY if request.path == "/big" else request.body
    return HttpResponse(200, Headers({"Content-Type": "text/plain"}), body)


def build_server(backend: str, options: dict):
    """``options``: ``obs`` (admin surface on), ``chunk`` (responses over
    1 KB go out in 1 KB chunks), ``gzip`` (negotiated response coding)."""
    keywords = {}
    if options.get("obs"):
        keywords["observability"] = Observability()
    if options.get("chunk"):
        keywords.update(chunk_responses_over=1024, chunk_size=1024)
    if options.get("gzip"):
        keywords["compression"] = CompressionPolicy()
    return BACKENDS[backend](
        app, transport=TcpTransport(), address=("127.0.0.1", 0), **keywords
    )


def exchange(address, case: dict, *, want: int, quiet: float) -> tuple[bytes, str]:
    """Send the case's bytes; ``(everything answered, "open" | "closed")``.

    ``want`` response bytes are waited for patiently; after them the
    connection counts as open when it stays silent for ``quiet``.
    """
    received = bytearray()
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request_bytes(case))
        if case.get("half_close"):
            sock.shutdown(socket.SHUT_WR)
        while True:
            sock.settimeout(5.0 if len(received) < want else quiet)
            try:
                data = sock.recv(65536)
            except socket.timeout:
                return bytes(received), "open"
            except ConnectionResetError:
                # the server closed on request bytes it never read
                data = b""
            if not data:
                return bytes(received), "closed"
            received += data


class _Servers:
    """One running server per (backend, options), shared by the cases."""

    def __init__(self) -> None:
        self._running: dict[tuple, tuple] = {}

    def address(self, backend: str, options: dict):
        key = (backend, tuple(sorted(options.items())))
        if key not in self._running:
            server = build_server(backend, options)
            self._running[key] = (server, server.start())
        return self._running[key][1]

    def stop(self) -> None:
        for server, _address in self._running.values():
            server.stop()


@pytest.fixture(scope="module")
def servers():
    pool = _Servers()
    yield pool
    pool.stop()


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("case", load_cases(), ids=lambda case: case["name"])
def test_backend_answers_the_committed_bytes(servers, case, backend):
    expected = case["expect"].encode("latin-1")
    address = servers.address(backend, case.get("server", {}))
    answered, fate = exchange(address, case, want=len(expected), quiet=QUIET_S)
    assert answered == expected
    assert fate == case["fate"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_slow_loris_is_dropped_at_the_read_idle_deadline(backend):
    """Half a head, then a byte now and then: ``ServerConfig.idle_timeout``
    closes the connection — unanswered, counted, its slot given back — on
    either backend, however often the peer trickles."""
    obs = Observability()
    config = ServerConfig(backend=backend, idle_timeout=0.3, observability=obs)
    server = build_http_server(app, config)
    with server.running() as address:
        with socket.create_connection(address, timeout=5) as sock:
            sock.sendall(b"POST /echo HTTP/1.1\r\nHos")
            answered = b"never closed"
            give_up = time.monotonic() + 5
            sock.settimeout(0.05)
            while time.monotonic() < give_up:
                try:
                    sock.sendall(b"x")  # resets nothing: the anchor is the first byte
                    answered = sock.recv(65536)
                except socket.timeout:
                    continue
                except OSError:  # closed under a byte in flight
                    answered = b""
                break
        assert answered == b""
        while server.health_snapshot()["current_connections"] and time.monotonic() < give_up:
            time.sleep(0.01)
        assert server.health_snapshot()["current_connections"] == 0
    assert obs.registry.counter("http.connections.timed_out").value == 1


def observe(backend: str) -> dict[str, dict]:
    """What ``backend`` answers to every case, in corpus form."""
    pool, seen = _Servers(), {}
    try:
        for case in load_cases():
            address = pool.address(backend, case.get("server", {}))
            answered, fate = exchange(address, case, want=0, quiet=1.0)
            seen[case["name"]] = {"expect": answered.decode("latin-1"), "fate": fate}
    finally:
        pool.stop()
    return seen


def main(argv: list[str]) -> int:
    if argv[:1] == ["observe"] and argv[1:] in (["threaded"], ["evented"]):
        print(json.dumps(observe(argv[1]), indent=1))
        return 0
    if argv == ["write"]:
        threaded, evented = observe("threaded"), observe("evented")
        differing = [name for name in threaded if threaded[name] != evented[name]]
        if differing:
            print(f"backends disagree on: {', '.join(differing)}", file=sys.stderr)
            return 1
        document = json.loads(CORPUS_PATH.read_text())
        for case in document["cases"]:
            case.update(threaded[case["name"]])
        CORPUS_PATH.write_text(json.dumps(document, indent=1) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
