"""The RPC layer's golden wire corpus: request and response envelopes
whose exact bytes are pinned in ``golden/rpc_wire.json``.

The messages are the four shapes ``perf/`` gates on (seed 1, built by
``perf.workloads.make_message``) plus one pack of every value type the
codec knows.  Each goes the way the stack sends it: client-side encode
and pack, server-side parse, decode, execute, encode and pack.  The JSON
was rendered at the commit *before* the typed-value codec became
table-driven (PR 19), so the test holds the tables, the shared attribute
tuples and the writer's attribute-tuple memo to byte-identity with the
ladders they replaced.  A message over ``TEXT_LIMIT`` bytes is pinned by
length and SHA-256 only.  Regenerate — only for a deliberate wire change
— with ``PYTHONPATH=src python -m tests.soap.rpc_wire_cases``.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path

from perf import services, workloads
from repro.core import ClientAssembler, packformat
from repro.server import ServiceContainer, service_from_functions
from repro.soap import Envelope, build_request_envelope

GOLDEN = Path(__file__).parent / "golden" / "rpc_wire.json"
SEED = 1
TEXT_LIMIT = 32768

MIXED_NS = "urn:test:mixed"


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    """A ``str`` subclass: served by the ``str`` row of the encoder table."""


class Row(dict):
    """A ``dict`` subclass."""


class Column(list):
    """A ``list`` subclass."""


def mirror(**params):
    """Return the parameters as one struct."""
    return params


MIXED_CALLS = (
    (
        "mirror",
        {
            "text": 'a&b<c>"d\' é中🎉',
            "empty": "",
            "name": Name("sub"),
            "count": 7,
            "level": Level.LOW,
            "int32_edges": [-(2**31), 2**31 - 1],
            "int64_edges": [-(2**31) - 1, 2**31, -(2**63), 2**63 - 1],
            "beyond": [-(2**63) - 1, 2**63, 2**70],
            "ratio": 617.601,
            "floats": [0.0, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")],
            "flags": [True, False],
            "nothing": None,
            "blob": b"\x00\x01\xffbinary",
            "no_bytes": b"",
        },
    ),
    (
        "mirror",
        {
            "aware": datetime(2006, 9, 25, 12, 30, 45, 123456, tzinfo=timezone(timedelta(hours=8))),
            "naive": datetime(2006, 9, 25, 12, 30, 45),
            "day": date(2006, 9, 25),
            "at": time(12, 30, 45),
            "pair": (1, "two"),
            "column": Column([1, [2, [3, []]]]),
            "row": Row({"a": 1, "b": {"c": None, "d": {}}}),
            "records": [{"id": 1, "tags": ["x", 2]}, {"id": 2, "tags": []}],
        },
    ),
)


def _container() -> ServiceContainer:
    return ServiceContainer(
        [
            services.make_service(),
            service_from_functions("Mixed", MIXED_NS, {"mirror": mirror}),
        ]
    )


def _packed(namespace: str, calls) -> tuple[bytes, bytes]:
    assembler = ClientAssembler(namespace)
    for operation, params in calls:
        assembler.add_call(operation, params)
    request = assembler.assemble().to_bytes()
    received = Envelope.parse(request, server=True)
    entries = packformat.unpack_parallel_method(received.first_body_entry())
    container = _container()
    answers = [container.execute_entry(entry) for entry in entries]
    response = Envelope()
    response.add_body(packformat.build_parallel_method(answers, assign_ids=False))
    return request, response.to_bytes()


def _single(namespace: str, operation: str, params) -> tuple[bytes, bytes]:
    request = build_request_envelope(namespace, operation, params).to_bytes()
    received = Envelope.parse(request, server=True)
    response = Envelope()
    response.add_body(_container().execute_entry(received.first_body_entry()))
    return request, response.to_bytes()


def _perf_shape(shape: str) -> tuple[bytes, bytes]:
    message = workloads.make_message(shape, random.Random(f"{shape}:{SEED}"))
    calls = [(call.operation, call.params) for call in message.calls]
    if message.packed:
        return _packed(services.PERF_NS, calls)
    return _single(services.PERF_NS, *calls[0])


CASES = {
    "pack32x10B": lambda: _perf_shape("pack32x10B"),
    "pack4x100KB": lambda: _perf_shape("pack4x100KB"),
    "pack4xrec16": lambda: _perf_shape("pack4xrec16"),
    "single10B": lambda: _perf_shape("single10B"),
    "mixed_types": lambda: _packed(MIXED_NS, MIXED_CALLS),
}


def pin(data: bytes) -> dict:
    """What the corpus records of one envelope."""
    pinned = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    if len(data) <= TEXT_LIMIT:
        pinned["text"] = data.decode("utf-8")
    return pinned


def render(name: str) -> dict:
    """The corpus entry of one case, from the code under test."""
    request, response = CASES[name]()
    return {"request": pin(request), "response": pin(response)}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({name: render(name) for name in CASES}, indent=1, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
