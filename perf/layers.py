"""The traced run: a stepped replay of one round trip, layer by layer.

One thread walks one message of a shape through the chain

    client-encode -> assemble -> envelope-write -> http-encode -> transport
    -> http-parse -> envelope-parse -> unpack -> execute -> pack
    -> envelope-write -> http-encode -> http-parse -> envelope-parse -> dispatch

calling the same public functions the client and server call, each step inside
a span.  (One thread cannot stand at both ends of the socket, so the response
leg of the transport is timed together with the request leg.)  Side probes
time the pieces that overlap chain steps — whole-client, whole-endpoint, bare
HTTP round trips, the other HTTP parser — so self times come out by
subtraction.

Every ``repro`` name is looked up when first used.  A step whose names are
gone is switched off at the dry run: its metrics read ``None``, the names land
in ``missing``, and nothing else stops.
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable

from perf import services, spans, stats, workloads

SYMBOLS = {
    "Envelope": "repro.soap:Envelope",
    "build_request_envelope": "repro.soap:build_request_envelope",
    "parse_response_envelope": "repro.soap:parse_response_envelope",
    "parse_rpc_request": "repro.soap:parse_rpc_request",
    "serialize_rpc_request": "repro.soap:serialize_rpc_request",
    "serialize_rpc_response": "repro.soap:serialize_rpc_response",
    "ClientAssembler": "repro.core:ClientAssembler",
    "ClientDispatcher": "repro.core:ClientDispatcher",
    "spi_server_handlers": "repro.core:spi_server_handlers",
    "MessageContext": "repro.server:MessageContext",
    "ServerConfig": "repro.server:ServerConfig",
    "Stage": "repro.server:Stage",
    "build_http_server": "repro.server.config:build_http_server",
    "ChannelReader": "repro.http:ChannelReader",
    "Headers": "repro.http:Headers",
    "HttpConnection": "repro.http:HttpConnection",
    "HttpRequest": "repro.http:HttpRequest",
    "HttpResponse": "repro.http:HttpResponse",
    "RequestParser": "repro.http:RequestParser",
    "read_request": "repro.http:read_request",
    "read_response": "repro.http:read_response",
    "xml_parse": "repro.xmlcore:parse",
    "serialize_bytes": "repro.xmlcore:serialize_bytes",
    "TcpTransport": "repro.transport:TcpTransport",
    "Observability": "repro.obs:Observability",
}

APP_STAGE_WORKERS = 16  # ServerConfig's default application stage
RECV_BYTES = 65536  # what one channel recv asks for


class MissingSymbol(Exception):
    """A ``repro`` name a probe needs no longer exists."""


class Api:
    """``repro`` names, looked up on first use."""

    def __getattr__(self, name: str) -> Any:
        module, _, attribute = SYMBOLS[name].partition(":")
        try:
            found = getattr(importlib.import_module(module), attribute)
        except (ImportError, AttributeError) as exc:
            raise MissingSymbol(SYMBOLS[name]) from exc
        setattr(self, name, found)
        return found


class _BytesChannel:
    """A channel that serves fixed bytes the way a socket would: at most
    :data:`RECV_BYTES` per ``recv``."""

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self._at = 0

    def recv(self, max_bytes: int = RECV_BYTES) -> bytes:
        chunk = bytes(self._view[self._at : self._at + max_bytes])
        self._at += len(chunk)
        return chunk


class _KeepingChannel(workloads.CountingChannel):
    """A counting channel that also keeps the bytes it moved."""

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self.sent = bytearray()
        self.received = bytearray()

    def sendall(self, data: bytes) -> None:
        self.sent.extend(data)
        super().sendall(data)

    def recv(self, max_bytes: int = RECV_BYTES) -> bytes:
        data = super().recv(max_bytes)
        self.received.extend(data)
        return data


class _TapTransport(workloads.RecordingTransport):
    """Client transport whose channels keep their bytes."""

    channel_class = _KeepingChannel


def _split_http(wire: bytes) -> tuple[str, dict[str, str], bytes]:
    """``(start line, header fields without Content-Length, body)``."""
    head, _, body = wire.partition(b"\r\n\r\n")
    start_line, *lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in lines)
    fields.pop("Content-Length", None)
    return start_line, fields, body


def _recv_exactly(channel, count: int) -> bytes:
    chunks = []
    while count > 0:
        chunk = channel.recv(RECV_BYTES)
        if not chunk:
            raise ConnectionError("peer closed mid-message")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


class _EchoPeer:
    """Loopback byte peer: reads ``request_size`` bytes, answers ``reply``."""

    def __init__(self, transport, request_size: int, reply: bytes) -> None:
        self._listener = transport.listen(("127.0.0.1", 0))
        self.address = self._listener.address
        self._thread = threading.Thread(
            target=self._serve, args=(request_size, reply), name="perf-echo-peer"
        )
        self._thread.start()

    def _serve(self, request_size: int, reply: bytes) -> None:
        with self._listener.accept() as channel:
            try:
                while True:
                    _recv_exactly(channel, request_size)
                    channel.sendall(reply)
            except ConnectionError:
                pass

    def close(self) -> None:
        self._listener.close()
        self._thread.join()


def _noop() -> None:
    pass


def _count_nodes(element) -> int:
    return 1 + sum(_count_nodes(child) for child in element.element_children())


# (span name, packed shapes only).  The HTTP request parse is "pull" on the
# threaded backend and "push" on the evented one; the chain runs the backend's
# own and the probes run the other.
CHAIN = (
    ("soap.client_encode", False),
    ("core.assemble_total", True),
    ("soap.envelope_write_request", False),
    ("http.encode_request", False),
    ("transport.rtt", False),
    ("http.parse_request", False),
    ("soap.envelope_parse_server", False),
    ("core.unpack", True),
    ("server.execute", False),
    ("core.pack", True),
    ("soap.envelope_write_response", False),
    ("http.encode_response", False),
    ("http.parse_response", False),
    ("soap.envelope_parse_client", False),
    ("core.dispatch", True),
)
PROBES = (
    ("http.parse_request_other", False),
    ("soap.decode_entries", False),
    ("soap.encode_entries", False),
    ("xmlcore.parse_tree", False),
    ("xmlcore.parse_cursor", False),
    ("xmlcore.serialize", False),
    ("transport.connect", False),
    ("http.rtt_threaded", False),
    ("http.rtt_evented", False),
    ("server.stage_handoff", False),
    ("server.endpoint", False),
    ("client.call", False),
)
PARSER_OF_BACKEND = {"threaded": "pull", "evented": "push"}


class ShapeReplay:
    """Everything needed to replay one shape's round trip, step by step."""

    def __init__(self, deployment: workloads.Deployment, shape: str) -> None:
        self.api = api = Api()
        self.deployment = deployment
        self.message = deployment.messages[shape]
        self.backend = deployment.workload.backend
        self.missing: dict[str, str] = {}
        self._closers: list[Callable[[], None]] = []
        self.recorder = spans.SpanRecorder()
        self.traced_ns: list[int] = []
        self.untraced_ns: list[int] = []
        self.nodes: int | None = None
        try:
            self._capture_wire()
            self._guard(("transport.rtt",), self._start_peer)
            self._guard(("http.rtt_threaded",), lambda: self._start_canned("threaded"))
            self._guard(("http.rtt_evented",), lambda: self._start_canned("evented"))
            self._guard(("xmlcore.serialize",), self._parse_trees)
            self._guard(("server.stage_handoff",), self._start_stage)
            if self.message.packed:
                self._guard(("core.unpack", "core.pack"), self._make_handlers)
            self.chain = self._dry_run(CHAIN)
            self.probes = self._dry_run(PROBES)
            self.replay_matches_wire = False
            if len(self.chain) == len(CHAIN):
                if not self.message.check(self.results):
                    raise RuntimeError(
                        f"replay of {self.message.shape} got a wrong answer"
                    )
                self.replay_matches_wire = (
                    self.wire == self.request_wire
                    and self.reply_wire == self.response_wire
                )
        except BaseException:
            self.close()
            raise

    # -- set-up ---------------------------------------------------------

    def _capture_wire(self) -> None:
        """One real exchange gives the wire bytes everything else is cut from."""
        tap = _TapTransport(self.api.TcpTransport())
        lane = workloads.Lane(tap, self.deployment.address)
        self._closers.append(lane.proxy.close)
        lane.send(self.message)  # opens the connection
        (channel,) = tap.channels
        channel.sent.clear()
        channel.received.clear()
        lane.send(self.message)
        self.request_wire = bytes(channel.sent)
        self.response_wire = bytes(channel.received)
        request_line, self.request_fields, self.request_body = _split_http(
            self.request_wire
        )
        self.method, self.path, _ = request_line.split(" ")
        _, self.response_fields, self.response_body = _split_http(self.response_wire)

    def _guard(self, names: tuple[str, ...], build: Callable[[], None]) -> None:
        """Run one piece of set-up; on a missing symbol mark ``names`` off."""
        try:
            build()
        except MissingSymbol as exc:
            for name in names:
                self.missing[name] = f"missing {exc}"

    def _start_peer(self) -> None:
        transport = self.api.TcpTransport()
        echo = _EchoPeer(transport, len(self.request_wire), self.response_wire)
        self._closers.append(echo.close)
        self.peer_channel = transport.connect(echo.address)
        self._closers.append(self.peer_channel.close)

    def _start_canned(self, backend: str) -> None:
        """An HTTP server of ``backend`` whose app answers the captured
        response bytes, a connection to it, and (own backend) a client lane."""
        api = self.api
        fields = {
            name: value
            for name, value in self.response_fields.items()
            if name not in ("Server", "Connection")  # the server adds its own
        }

        def app(request):
            return api.HttpResponse(200, api.Headers(dict(fields)), self.response_body)

        server = api.build_http_server(app, api.ServerConfig(backend=backend))
        address = server.start()
        self._closers.append(lambda: workloads.stop_server(server, address))
        connection = api.HttpConnection(api.TcpTransport(), address)
        self._closers.append(connection.close)
        setattr(self, f"canned_{backend}", connection)
        if backend == self.backend:
            self.canned_lane = workloads.Lane(api.TcpTransport(), address)
            self._closers.append(self.canned_lane.proxy.close)

    def _parse_trees(self) -> None:
        self.response_tree = self.api.xml_parse(self.response_body)
        self.nodes = _count_nodes(self.api.xml_parse(self.request_body)) + _count_nodes(
            self.response_tree
        )

    def _start_stage(self) -> None:
        self.stage = self.api.Stage("perf-handoff", APP_STAGE_WORKERS)
        self._closers.append(self.stage.shutdown)

    def _make_handlers(self) -> None:
        self.unpacker, self.packer = self.api.spi_server_handlers()

    def _step(self, name: str, packed_only: bool) -> Callable:
        if packed_only and not self.message.packed:
            # An unpacked message bypasses this step.  An empty span stands in
            # for it, so the metric reads the clock's own floor, as measured,
            # instead of a literal zero.
            return lambda rec: rec.stop(rec.start(name))
        return getattr(self, "_" + name.replace(".", "_"))

    def _dry_run(self, steps) -> list[Callable]:
        """Run each step once, untimed; returns the ones that ran and notes
        why the others are switched off."""
        null = spans.NullRecorder()
        ran = []
        for name, packed_only in steps:
            if name in self.missing:
                continue
            step = self._step(name, packed_only)
            try:
                step(null)
            except MissingSymbol as exc:
                self.missing[name] = f"missing {exc}"
            except AttributeError as exc:
                # a renamed method, or the output of a step already switched off
                self.missing[name] = f"cannot run: {exc}"
            else:
                ran.append(step)
        return ran

    def close(self) -> None:
        for closer in reversed(self._closers):
            closer()

    # -- one pass -------------------------------------------------------

    def run_pass(self, number: int) -> None:
        """The chain twice — spans on, spans off, order alternating — then
        every probe once."""
        recorder, null = self.recorder, spans.NullRecorder()
        recorder.rt_id = number
        order = (recorder, null) if number % 2 == 0 else (null, recorder)
        for active in order:
            begin = time.perf_counter_ns()
            root = active.start("rt")
            for step in self.chain:
                step(active)
            active.stop(root)
            elapsed = time.perf_counter_ns() - begin
            (self.traced_ns if active is recorder else self.untraced_ns).append(elapsed)
        root = recorder.start("probes")
        for step in self.probes:
            step(recorder)
        recorder.stop(root)

    # -- chain steps ----------------------------------------------------

    def _soap_client_encode(self, rec) -> None:
        api, calls = self.api, self.message.calls
        span = rec.start("soap.client_encode")
        if self.message.packed:
            for call in calls:
                api.serialize_rpc_request(services.PERF_NS, call.operation, call.params)
        else:
            self.envelope = api.build_request_envelope(
                services.PERF_NS, calls[0].operation, calls[0].params
            )
        rec.stop(span)

    def _core_assemble_total(self, rec) -> None:
        span = rec.start("core.assemble_total")
        assembler = self.api.ClientAssembler(services.PERF_NS)
        self.futures = [
            assembler.add_call(call.operation, call.params)
            for call in self.message.calls
        ]
        self.envelope = assembler.assemble()
        rec.stop(span)

    def _soap_envelope_write_request(self, rec) -> None:
        span = rec.start("soap.envelope_write_request")
        self.body = self.envelope.to_bytes()
        rec.stop(span)

    def _http_encode_request(self, rec) -> None:
        api = self.api
        span = rec.start("http.encode_request")
        self.wire = api.HttpRequest(
            self.method, self.path, api.Headers(self.request_fields), self.body
        ).to_bytes()
        rec.stop(span)

    def _transport_rtt(self, rec) -> None:
        span = rec.start("transport.rtt")
        self.peer_channel.sendall(self.wire)
        self.received = _recv_exactly(self.peer_channel, len(self.response_wire))
        rec.stop(span)

    def _parse_request(self, rec, style: str, name: str):
        api = self.api
        if style == "pull":
            reader = api.ChannelReader(_BytesChannel(self.wire))
            span = rec.start(name)
            request = api.read_request(reader)
        else:
            parser, channel = api.RequestParser(), _BytesChannel(self.wire)
            span = rec.start(name)
            request = None
            while request is None:
                parser.feed(channel.recv())
                request = parser.next_request()
        rec.stop(span)
        return request

    def _http_parse_request(self, rec) -> None:
        style = PARSER_OF_BACKEND[self.backend]
        self.http_request = self._parse_request(
            rec, style, f"http.parse_request_{style}"
        )

    def _soap_envelope_parse_server(self, rec) -> None:
        span = rec.start("soap.envelope_parse_server")
        envelope = self.api.Envelope.parse(self.http_request.body, server=True)
        rec.stop(span)
        self.context = self.api.MessageContext.for_envelope(envelope)

    def _core_unpack(self, rec) -> None:
        span = rec.start("core.unpack")
        self.unpacker.invoke_request(self.context)
        rec.stop(span)

    def _server_execute(self, rec) -> None:
        execute = self.deployment.server.container.execute_entry
        span = rec.start("server.execute")
        self.context.response_entries = [
            execute(entry) for entry in self.context.request_entries
        ]
        rec.stop(span)

    def _core_pack(self, rec) -> None:
        span = rec.start("core.pack")
        self.packer.invoke_response(self.context)
        rec.stop(span)

    def _soap_envelope_write_response(self, rec) -> None:
        span = rec.start("soap.envelope_write_response")
        envelope = self.api.Envelope()
        envelope.body_entries = list(self.context.response_entries)
        self.reply_body = envelope.to_bytes()
        rec.stop(span)

    def _http_encode_response(self, rec) -> None:
        api = self.api
        span = rec.start("http.encode_response")
        self.reply_wire = api.HttpResponse(
            200, api.Headers(self.response_fields), self.reply_body
        ).to_bytes()
        rec.stop(span)

    def _http_parse_response(self, rec) -> None:
        reader = self.api.ChannelReader(_BytesChannel(self.received))
        span = rec.start("http.parse_response")
        self.http_response = self.api.read_response(reader)
        rec.stop(span)

    def _soap_envelope_parse_client(self, rec) -> None:
        api, body = self.api, self.http_response.body
        span = rec.start("soap.envelope_parse_client")
        if self.message.packed:
            self.reply_envelope = api.Envelope.parse(body, server=True)
        else:
            # the unpacked client reads envelope and value in one walk
            self.results = [api.parse_response_envelope(api.Envelope.parse(body)).value]
        rec.stop(span)

    def _core_dispatch(self, rec) -> None:
        span = rec.start("core.dispatch")
        self.api.ClientDispatcher().dispatch(self.reply_envelope, self.futures)
        rec.stop(span)
        self.results = [future.result(0) for future in self.futures]

    # -- side probes ----------------------------------------------------

    def _http_parse_request_other(self, rec) -> None:
        style = "push" if PARSER_OF_BACKEND[self.backend] == "pull" else "pull"
        self._parse_request(rec, style, f"http.parse_request_{style}")

    def _soap_decode_entries(self, rec) -> None:
        entries = self.context.request_entries
        matcher = self.deployment.server.container.matcher
        span = rec.start("soap.decode_entries")
        for entry in entries:
            self.api.parse_rpc_request(entry, matcher)
        rec.stop(span)

    def _soap_encode_entries(self, rec) -> None:
        message = self.message
        span = rec.start("soap.encode_entries")
        for call, value in zip(message.calls, message.expected):
            self.api.serialize_rpc_response(services.PERF_NS, call.operation, value)
        rec.stop(span)

    def _xmlcore_parse_tree(self, rec) -> None:
        span = rec.start("xmlcore.parse_tree")
        self.api.xml_parse(self.request_body, mode="tree")
        rec.stop(span)

    def _xmlcore_parse_cursor(self, rec) -> None:
        span = rec.start("xmlcore.parse_cursor")
        cursor = self.api.xml_parse(self.response_body, mode="cursor")
        cursor.enter(cursor.root())
        cursor.finish()
        rec.stop(span)

    def _xmlcore_serialize(self, rec) -> None:
        span = rec.start("xmlcore.serialize")
        self.api.serialize_bytes(self.response_tree)
        rec.stop(span)

    def _transport_connect(self, rec) -> None:
        transport = self.api.TcpTransport()
        span = rec.start("transport.connect")
        channel = transport.connect(self.deployment.address)
        rec.stop(span)
        channel.close()

    def _http_rtt(self, rec, backend: str) -> None:
        api = self.api
        connection = getattr(self, f"canned_{backend}")
        request = api.HttpRequest(
            self.method, self.path, api.Headers(self.request_fields), self.request_body
        )
        span = rec.start(f"http.rtt_{backend}")
        connection.request(request)
        rec.stop(span)

    def _http_rtt_threaded(self, rec) -> None:
        self._http_rtt(rec, "threaded")

    def _http_rtt_evented(self, rec) -> None:
        self._http_rtt(rec, "evented")

    def _server_stage_handoff(self, rec) -> None:
        span = rec.start("server.stage_handoff")
        futures = [self.stage.submit(_noop) for _ in self.message.calls]
        for future in futures:
            future.result()
        rec.stop(span)

    def _server_endpoint(self, rec) -> None:
        api = self.api
        request = api.HttpRequest(
            self.method, self.path, api.Headers(self.request_fields), self.request_body
        )
        span = rec.start("server.endpoint")
        response = self.deployment.server.endpoint(request)
        rec.stop(span)
        if response.status != 200:
            raise RuntimeError(f"endpoint probe answered HTTP {response.status}")

    def _client_call(self, rec) -> None:
        span = rec.start("client.call")
        results = self.canned_lane.send(self.message)
        rec.stop(span)
        self.client_results = results

    # -- results --------------------------------------------------------

    def measured(self) -> dict[str, float | None]:
        """This shape's per-layer metrics: typical milliseconds per step
        (``None`` for steps switched off), the self times got by subtraction,
        the counts, and the replay totals."""
        grouped = spans.durations_ms(self.recorder.spans)

        def typical(name: str) -> float | None:
            return stats.midmean(grouped[name]) if name in grouped else None

        m = {name: typical(name) for name, _ in CHAIN + PROBES}
        # the two request parsers record under their own names
        del m["http.parse_request"], m["http.parse_request_other"]
        for style in PARSER_OF_BACKEND.values():
            m[f"http.parse_request_{style}"] = typical(f"http.parse_request_{style}")

        def minus(name: str, *parts: str) -> float | None:
            if m[name] is None or any(m[part] is None for part in parts):
                return None
            return m[name] - sum(m[part] for part in parts)

        if self.message.packed:  # the assembler encodes the entries inside
            m["core.assemble"] = minus("core.assemble_total", "soap.client_encode")
        else:
            m["core.assemble"] = m["core.assemble_total"]
        del m["core.assemble_total"]
        m["server.execute_self"] = minus(
            "server.execute", "soap.decode_entries", "soap.encode_entries"
        )
        m["server.endpoint_self"] = minus(
            "server.endpoint", "soap.envelope_parse_server", "core.unpack",
            "server.execute", "core.pack", "soap.envelope_write_response",
        )
        m["client.self"] = minus(
            "client.call", f"http.rtt_{self.backend}", "soap.client_encode",
            "core.assemble", "soap.envelope_write_request",
            "soap.envelope_parse_client", "core.dispatch",
        )
        chain = [name for name, _ in CHAIN]
        chain[chain.index("core.assemble_total")] = "core.assemble"
        chain[chain.index("http.parse_request")] = (
            f"http.parse_request_{PARSER_OF_BACKEND[self.backend]}"
        )
        # a chain with a step switched off has no sum: a hole must not read
        # as a faster layer
        parts = [m[name] for name in chain]
        m["bench.layer_sum"] = None if None in parts else sum(parts)
        m["replay.traced"] = stats.midmean(self.traced_ns) / 1e6
        m["replay.untraced"] = stats.midmean(self.untraced_ns) / 1e6

        result = {f"{name}_ms": value for name, value in m.items()}
        result["transport.request_bytes"] = len(self.request_wire)
        result["transport.response_bytes"] = len(self.response_wire)
        result["core.entries_per_rt"] = (
            len(self.message.calls) if self.message.packed else 0
        )
        result["xmlcore.nodes_per_rt"] = self.nodes
        return result


class TracedRun:
    """The traced run of one workload: a :class:`ShapeReplay` per shape."""

    def __init__(self, deployment: workloads.Deployment) -> None:
        self.deployment = deployment
        self.replays: dict[str, ShapeReplay] = {}
        try:
            for shape, _ in deployment.workload.mix:
                self.replays[shape] = ShapeReplay(deployment, shape)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for replay in self.replays.values():
            replay.close()

    def run(self, budget_s: float, min_passes: int) -> int:
        """Passes over every shape until the budget is spent (and at least
        ``min_passes``); returns how many were made."""
        deadline = time.perf_counter() + budget_s
        passes = 0
        while passes < min_passes or time.perf_counter() < deadline:
            for replay in self.replays.values():
                replay.run_pass(passes)
            passes += 1
        return passes

    def all_spans(self) -> list[list]:
        """Every shape's spans in one list (parents re-based)."""
        merged: list[list] = []
        for replay in self.replays.values():
            base = len(merged)
            for span in replay.recorder.spans:
                span = list(span)
                if span[spans.PARENT] >= 0:
                    span[spans.PARENT] += base
                merged.append(span)
        return merged

    def metrics(self) -> tuple[dict[str, float | None], dict[str, str]]:
        """``(per-layer metrics, missing probes)`` of the workload: each
        shape's numbers weighted by its share of the traffic."""
        weights = self.deployment.workload.weights
        per_shape = {shape: replay.measured() for shape, replay in self.replays.items()}
        mixed: dict[str, float | None] = {}
        for name in next(iter(per_shape.values())):
            values = [per_shape[shape][name] for shape in weights]
            mixed[name] = (
                None if None in values
                else sum(weights[shape] * per_shape[shape][name] for shape in weights)
            )
        mixed["bench.trace_overhead_share"] = (
            mixed.pop("replay.traced_ms") / mixed.pop("replay.untraced_ms") - 1.0
        )
        missing: dict[str, str] = {}
        for replay in self.replays.values():
            missing.update(replay.missing)
        return mixed, missing

    @property
    def replay_matches_wire(self) -> bool:
        return all(replay.replay_matches_wire for replay in self.replays.values())
