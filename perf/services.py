"""The bench-owned service, its seeded inputs and the correctness oracle.

The service is the benchmark's own so that ``--inject execute_us=N`` can slow
the application work and nothing else (the sensitivity self-check).  Inputs
depend on the seed in content but not in size: every seed puts the same number
of bytes on the wire, so ``wire_bytes_per_call`` repeats exactly.
"""

from __future__ import annotations

import functools
import random
import time
from typing import Any

from repro.server import service_from_functions

PERF_NS = "urn:perf:echo"
PERF_SERVICE = "PerfEcho"

_FILLER = "abcdefghijklmnopqrstuvwxyz0123456789"
_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_MARKUP = '&<>"'
_TWO_BYTE = "éüñßøåçλπж"  # each is two bytes in UTF-8

RECORDS_PER_CALL = 16


def make_service(execute_us: int = 0):
    """The echo service; each call first spins ``execute_us`` microseconds."""

    def echo(payload: str) -> str:
        """Return the payload unchanged."""
        return payload

    def echoRecords(records: list) -> list:
        """Return the records unchanged."""
        return records

    def slowed(function):
        @functools.wraps(function)  # the container binds parameters by signature
        def slow(**params):
            end = time.perf_counter_ns() + execute_us * 1000
            while time.perf_counter_ns() < end:
                pass
            return function(**params)

        return slow

    functions = {"echo": echo, "echoRecords": echoRecords}
    if execute_us > 0:
        functions = {name: slowed(function) for name, function in functions.items()}
    return service_from_functions(PERF_SERVICE, PERF_NS, functions)


def make_payload(rng: random.Random, size: int) -> str:
    """``size`` characters of filler, rotated by the seed."""
    start = rng.randrange(len(_FILLER))
    rotated = _FILLER[start:] + _FILLER[:start]
    return (rotated * (size // len(rotated) + 1))[:size]


def make_records(rng: random.Random) -> list[dict[str, Any]]:
    """Sixteen records of six typed fields each.

    Field widths are fixed — six-digit ints, ``ddd.ddd`` floats, as many
    ``True`` as ``False``, strings with one of each markup character and three
    two-byte characters — so the encoded size does not depend on the seed.
    """
    flags = [True, False] * (RECORDS_PER_CALL // 2)
    rng.shuffle(flags)
    records = []
    for active in flags:
        text = (
            [rng.choice(_LETTERS) for _ in range(24)]
            + list(_MARKUP)
            + rng.sample(_TWO_BYTE, 3)
        )
        rng.shuffle(text)
        records.append(
            {
                "id": rng.randrange(100_000, 1_000_000),
                "score": float(
                    f"{rng.randrange(100, 1000)}.{rng.randrange(10, 100)}{rng.randrange(1, 10)}"
                ),
                "active": active,
                "note": None,
                "tags": [
                    "".join(rng.choice(_LETTERS) for _ in range(5)),
                    "".join(rng.choice(_LETTERS) for _ in range(5)),
                    rng.randrange(100, 1000),
                ],
                "text": "".join(text),
            }
        )
    return records


def strict_equal(got: Any, expected: Any) -> bool:
    """Deep equality that also tells ``True`` from ``1`` and ``1`` from ``1.0``."""
    if type(got) is not type(expected):
        return False
    if isinstance(expected, dict):
        return got.keys() == expected.keys() and all(
            strict_equal(got[key], value) for key, value in expected.items()
        )
    if isinstance(expected, list):
        return len(got) == len(expected) and all(
            strict_equal(a, b) for a, b in zip(got, expected)
        )
    return got == expected
