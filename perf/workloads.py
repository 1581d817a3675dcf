"""The workloads, their message shapes, and how one is deployed.

A *shape* is one kind of message (packed or not, M calls, payload).  A
*workload* is a traffic mix of shapes, a loop discipline and a server backend.
Every deployment is ``architecture="staged"`` with the SPI handlers installed,
observability off (unless the obs probe asks) and keep-alive connections.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Any

from repro.client import Call, ClientConfig, KeepAliveSerialInvoker, build_proxy
from repro.core import PackedInvoker, spi_server_handlers
from repro.errors import ReproError
from repro.server import HandlerChain, ServerConfig, build_server
from repro.transport import TcpTransport

from perf import services

WARMUP_ROUND_TRIPS = 50


@dataclass(frozen=True)
class ShapeSpec:
    """One kind of message: ``calls`` invocations of ``operation``."""

    packed: bool
    calls: int
    operation: str
    payload_bytes: int = 0  # echo only


SHAPES = {
    "pack32x10B": ShapeSpec(True, 32, "echo", 10),
    "pack4x100KB": ShapeSpec(True, 4, "echo", 100_000),
    "pack4xrec16": ShapeSpec(True, 4, "echoRecords"),
    "single10B": ShapeSpec(False, 1, "echo", 10),
    "pack8x1KB": ShapeSpec(True, 8, "echo", 1_000),
    "pack2x100KB": ShapeSpec(True, 2, "echo", 100_000),
}


@dataclass(frozen=True)
class Workload:
    """A traffic mix: ``mix`` gives each shape's count per block of messages
    (the closed loops send one shape only)."""

    name: str
    why: str
    backend: str
    mix: tuple[tuple[str, int], ...]
    open_rate: float | None = None  # messages/s; None = closed loop
    senders: int = 1
    #: Listed in ``BENCHMARK.json`` and held to its bounds.  False: run and
    #: reported by ``perf/run.py`` like the others, but a diagnostic.
    gated: bool = True

    @property
    def weights(self) -> dict[str, float]:
        total = sum(count for _, count in self.mix)
        return {shape: count / total for shape, count in self.mix}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pack_small",
            "Fig. 5 shape, 32 x echo(10 B) in one message: per-entry work "
            "(RPC codec, pack/unpack, app-stage fan-out) dominates; bytes are negligible",
            "threaded",
            (("pack32x10B", 1),),
        ),
        Workload(
            "pack_large",
            "Fig. 7 shape, 4 x echo(100 KB): per-byte work (XML scan/escape/write, "
            "HTTP framing, copies) dominates; a pack/dispatch change must not move it",
            "threaded",
            (("pack4x100KB", 1),),
        ),
        Workload(
            "pack_records",
            "4 x echoRecords(16 records x 6 typed fields): per-node XML/SOAP cost "
            "(QNames, xsi types, escaping) where a serializer cache can win or lose opposite to pack_large",
            "threaded",
            (("pack4xrec16", 1),),
        ),
        Workload(
            "single_small",
            "one unpacked echo(10 B) per message on the evented backend: per-message "
            "fixed cost (syscalls, HTTP head, envelope skeleton, hand-offs); the SPI layer is bypassed",
            "evented",
            (("single10B", 1),),
        ),
        Workload(
            "open_mix",
            "open loop, 200 msg/s Poisson, 2 connections, 70% single / 25% pack 8 x 1 KB / "
            "5% pack 2 x 100 KB: the only workload with queueing, small messages wait behind large",
            "evented",
            (("single10B", 14), ("pack8x1KB", 5), ("pack2x100KB", 1)),
            open_rate=200.0,
            senders=2,
            # Its process idles two thirds of the time, and how fast a woken
            # virtual CPU runs is the host's mood: in two ten-run sets of the
            # same code the quartiles of rt_p50_ms lay 7 % and 41 % apart,
            # against 25 %, the widest bound the driver takes.  A metric that
            # cannot repeat cannot gate.
            gated=False,
        ),
    )
}


@dataclass(frozen=True)
class Message:
    """One concrete message: the calls to send and the results to expect."""

    shape: str
    packed: bool
    calls: tuple[Call, ...]
    expected: tuple[Any, ...]

    def check(self, results: list[Any]) -> bool:
        """True when ``results`` are exactly the expected values."""
        return len(results) == len(self.expected) and all(
            services.strict_equal(got, want)
            for got, want in zip(results, self.expected)
        )


def make_message(shape: str, rng: random.Random) -> Message:
    """The seeded inputs of one message of ``shape``."""
    spec = SHAPES[shape]
    calls, expected = [], []
    for _ in range(spec.calls):
        if spec.operation == "echo":
            value: Any = services.make_payload(rng, spec.payload_bytes)
            calls.append(Call("echo", {"payload": value}))
        else:
            value = services.make_records(rng)
            calls.append(Call("echoRecords", {"records": value}))
        expected.append(value)
    return Message(shape, spec.packed, tuple(calls), tuple(expected))


def make_messages(workload: Workload, seed: int) -> dict[str, Message]:
    """One message per shape of the workload, from the seed alone."""
    rng = random.Random(f"{workload.name}:{seed}")
    return {shape: make_message(shape, rng) for shape, _ in workload.mix}


class CountingChannel:
    """A client channel that counts the bytes it moves."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.bytes_out = 0
        self.bytes_in = 0

    def sendall(self, data: bytes) -> None:
        self._inner.sendall(data)
        self.bytes_out += len(data)

    def recv(self, max_bytes: int = 65536) -> bytes:
        data = self._inner.recv(max_bytes)
        self.bytes_in += len(data)
        return data

    def set_timeout(self, timeout: float | None) -> None:
        self._inner.set_timeout(timeout)

    def close(self) -> None:
        self._inner.close()


class RecordingTransport:
    """Client-side transport wrapper: counts connections and wire bytes.

    Counters live on the channel (one thread drives a channel at a time) and
    are summed on demand, so two sender threads never race on an integer.
    """

    channel_class = CountingChannel

    def __init__(self, inner) -> None:
        self._inner = inner
        self.channels: list[CountingChannel] = []

    def connect(self, address, timeout: float | None = None) -> CountingChannel:
        channel = self.channel_class(self._inner.connect(address, timeout=timeout))
        self.channels.append(channel)
        return channel

    @property
    def bytes_out(self) -> int:
        return sum(channel.bytes_out for channel in self.channels)

    @property
    def bytes_in(self) -> int:
        return sum(channel.bytes_in for channel in self.channels)


class Lane:
    """One sender: a keep-alive proxy (one connection) and its invokers."""

    def __init__(self, transport, address, tracer=None) -> None:
        self.proxy = build_proxy(
            ClientConfig(
                transport=transport,
                address=address,
                namespace=services.PERF_NS,
                service_name=services.PERF_SERVICE,
                reuse_connections=True,
                tracer=tracer,
            )
        )
        self._packed = PackedInvoker(self.proxy)
        self._serial = KeepAliveSerialInvoker(self.proxy)

    def send(self, message: Message) -> list[Any]:
        """One round trip: every call of ``message``, results in call order.
        SOAP faults and transport errors raise."""
        invoker = self._packed if message.packed else self._serial
        return invoker.invoke_all(list(message.calls))


class Deployment:
    """A started server, the workload's connections, and 50 warm round trips.

    Building one is what ``setup_s`` times.
    """

    def __init__(
        self,
        workload: Workload,
        messages: dict[str, Message],
        *,
        execute_us: int = 0,
        observability=None,
    ) -> None:
        self.workload = workload
        self.messages = messages
        self.server = build_server(
            ServerConfig(
                services=[services.make_service(execute_us)],
                architecture="staged",
                backend=workload.backend,
                chain=HandlerChain(spi_server_handlers()),
                observability=observability,
            )
        )
        self.address = self.server.start()
        self.transport = RecordingTransport(TcpTransport())
        self.lanes: list[Lane] = []
        try:
            tracer = observability.tracer if observability is not None else None
            self.lanes = [
                Lane(self.transport, self.address, tracer)
                for _ in range(workload.senders)
            ]
            self._warm_up()
        except BaseException:
            self.close()
            raise

    def _warm_up(self) -> None:
        sequence = mix_sequence(self.workload, WARMUP_ROUND_TRIPS)
        for index, shape in enumerate(sequence):
            message = self.messages[shape]
            lane = self.lanes[index % len(self.lanes)]
            if not message.check(lane.send(message)):
                raise RuntimeError(f"warm-up got a wrong answer for {shape}")

    def close(self) -> None:
        """Close the connections and stop the server."""
        for lane in self.lanes:
            lane.proxy.close()
        stop_server(self.server, self.address)


def stop_server(server, address) -> None:
    """``server.stop()`` without the threaded backend's five-second wait.

    Its accept thread sleeps in ``accept()``; closing the listener from
    another thread does not wake it on Linux, so ``stop()`` waits out a join
    timeout.  Throw-away connections wake it; once the listener is really
    gone they are refused and ``stop()`` returns.
    """
    stopper = threading.Thread(target=server.stop, name="perf-stop")
    stopper.start()
    transport = TcpTransport()
    while stopper.is_alive():
        try:
            transport.connect(address, timeout=0.2).close()
        except ReproError:
            pass
        stopper.join(0.02)


def mix_sequence(
    workload: Workload, count: int, rng: random.Random | None = None
) -> list[str]:
    """``count`` shape names in the workload's proportions.

    Dealt block by block; each block holds the exact mix, shuffled when an
    ``rng`` is given — so the realised mix, and with it bytes per call, is the
    same for every seed.
    """
    block = [shape for shape, share in workload.mix for _ in range(share)]
    sequence: list[str] = []
    while len(sequence) < count:
        dealt = list(block)
        if rng is not None:
            rng.shuffle(dealt)
        sequence.extend(dealt)
    return sequence[:count]
