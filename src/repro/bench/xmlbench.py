"""Microbenchmarks for the XML/SOAP (de)serialization hot path.

The paper's premise is that SOAP processing cost — XML parsing, tag
matching, serialization — dominates web-service latency.  This module
measures exactly that layer in isolation, on the payload shapes of the
paper's evaluation (Figures 5/6/7: 10 B, 1 KB and 100 KB echo payloads)
plus the SPI packed-envelope shape of Figure 4, so every later perf PR
is judged against a committed trajectory in ``BENCH_xml.json``.

Run::

    python -m repro.bench xml                 # full run, table output
    python -m repro.bench xml --smoke         # tiny run, crash detector (CI)
    python -m repro.bench xml --record PR-N   # append an entry to BENCH_xml.json

Cases are keyed ``<shape>/<stage>``; ``fig7/roundtrip``
(``serialize(parse(doc))`` on the 100 KB shape) is the headline gate.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.apps.echo import ECHO_NS, make_echo_payload
from repro.core.packformat import build_parallel_method
from repro.soap.envelope import Envelope
from repro.soap.serializer import serialize_rpc_request
from repro.xmlcore import parse
from repro.xmlcore.escape import escape_attribute, escape_text, unescape
from repro.xmlcore.lexer import tokenize
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import serialize

BENCH_JSON = "BENCH_xml.json"

# -- workload shapes ------------------------------------------------------


@dataclass(slots=True)
class Shape:
    """One document shape: N packed echo entries of a given payload size."""

    name: str
    payload_bytes: int
    entries: int
    inner: int  # iterations per timed sample (full mode)


# ``inner`` is sized so one sample lands in the ~10-100 ms range on the
# seed implementation, which keeps timer noise well under the effects
# we're gating on.
SHAPES = [
    Shape("fig5", 10, 1, 300),
    Shape("fig6", 1_000, 1, 100),
    Shape("fig7", 100_000, 1, 4),
    Shape("packed32", 1_000, 32, 10),
]


def build_shape_document(shape: Shape) -> str:
    """The on-the-wire document text for one shape."""
    envelope = Envelope()
    if shape.entries == 1:
        envelope.add_body(
            serialize_rpc_request(
                ECHO_NS, "echo", {"payload": make_echo_payload(shape.payload_bytes)}
            )
        )
    else:
        requests = [
            serialize_rpc_request(
                ECHO_NS, "echo", {"payload": make_echo_payload(shape.payload_bytes)}
            )
            for _ in range(shape.entries)
        ]
        envelope.add_body(build_parallel_method(requests))
    return envelope.to_string()


def _escape_corpus(size: int = 100_000) -> tuple[str, str, str]:
    """(clean text, text with markup chars, escaped text to unescape)."""
    clean = make_echo_payload(size)
    # ~1% of characters need escaping — the "mostly clean" case real
    # payloads exhibit; the all-clean case is covered by ``clean``.
    marked = "".join(
        ch if i % 100 else "&" if i % 200 else "<" for i, ch in enumerate(clean)
    )
    return clean, marked, escape_text(marked)


# -- measurement ----------------------------------------------------------


@dataclass(slots=True)
class CaseResult:
    """Timing summary for one benchmark case."""

    name: str
    inner: int
    samples_s: list[float] = field(default_factory=list)

    @property
    def p50_ms(self) -> float:
        """Median wall milliseconds per single operation."""
        return statistics.median(self.samples_s) / self.inner * 1e3

    @property
    def ops_per_s(self) -> float:
        return self.inner / statistics.median(self.samples_s)

    def as_dict(self) -> dict:
        """JSON-friendly summary (the shape stored in BENCH_xml.json)."""
        return {
            "p50_ms": round(self.p50_ms, 6),
            "ops_per_s": round(self.ops_per_s, 2),
            "inner": self.inner,
            "repeats": len(self.samples_s),
        }


def _time_case(
    name: str, fn: Callable[[], object], *, inner: int, repeats: int
) -> CaseResult:
    fn()  # warmup
    result = CaseResult(name, inner)
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        result.samples_s.append(time.perf_counter() - start)
    return result


def _drain(iterator) -> None:
    deque(iterator, maxlen=0)


def build_cases(*, smoke: bool = False) -> list[tuple[str, Callable[[], object], int]]:
    """(name, thunk, inner-iterations) for every benchmark case."""
    cases: list[tuple[str, Callable[[], object], int]] = []
    for shape in SHAPES:
        document = build_shape_document(shape)
        tree = parse(document)
        inner = max(1, shape.inner // 10) if smoke else shape.inner
        cases.append((f"{shape.name}/lex", lambda d=document: _drain(tokenize(d)), inner))
        cases.append((f"{shape.name}/parse", lambda d=document: parse(d), inner))
        cases.append(
            (f"{shape.name}/serialize", lambda t=tree: serialize(t, declaration=True), inner)
        )
        cases.append(
            (f"{shape.name}/roundtrip", lambda d=document: serialize(parse(d)), inner)
        )
        cases.append(
            (f"{shape.name}/scan_body", _make_scan_body(document), inner)
        )
        cases.append(
            (f"{shape.name}/treebuild", _make_treebuild(shape), inner)
        )

    clean, marked, escaped = _escape_corpus()
    inner = 2 if smoke else 20
    cases.append(("escape/text_clean", lambda: escape_text(clean), inner))
    cases.append(("escape/text_marked", lambda: escape_text(marked), inner))
    cases.append(("escape/attribute_clean", lambda: escape_attribute(clean), inner))
    cases.append(("escape/unescape_clean", lambda: unescape(clean), inner))
    cases.append(("escape/unescape_marked", lambda: unescape(escaped), inner))
    return cases


def _make_scan_body(document: str) -> Callable[[], object]:
    """Body-entry extraction; uses the pull walk when available so the
    same case is comparable across the trajectory (older entries fall
    back to full-tree envelope parsing)."""
    try:
        from repro.soap.envelope import iter_body_entries
    except ImportError:
        return lambda d=document: Envelope.parse(d).body_entries
    return lambda d=document: list(iter_body_entries(d))


def _make_treebuild(shape: Shape) -> Callable[[], object]:
    """Programmatic Element-tree construction for the shape — no XML
    text involved.  Isolates the tree-core allocation cost (slotted
    Element, tuple attribute storage) from lexing and escaping."""
    payload = make_echo_payload(shape.payload_bytes)

    def build() -> Element:
        envelope = Envelope()
        if shape.entries == 1:
            envelope.add_body(
                serialize_rpc_request(ECHO_NS, "echo", {"payload": payload})
            )
        else:
            envelope.add_body(
                build_parallel_method(
                    [
                        serialize_rpc_request(ECHO_NS, "echo", {"payload": payload})
                        for _ in range(shape.entries)
                    ]
                )
            )
        return envelope.to_element()

    return build


# -- runner / recording ---------------------------------------------------


def run_xml_bench(*, smoke: bool = False, repeats: int | None = None) -> dict[str, dict]:
    """Run every case; mapping of case name → summary dict."""
    if repeats is None:
        repeats = 1 if smoke else 5
    results: dict[str, dict] = {}
    for name, fn, inner in build_cases(smoke=smoke):
        results[name] = _time_case(name, fn, inner=inner, repeats=repeats).as_dict()
    return results


def render_table(results: dict[str, dict]) -> str:
    """ASCII table of case results for terminal output."""
    lines = [f"{'case':<28} {'p50 ms':>12} {'ops/s':>14}"]
    lines.append("-" * 56)
    for name, summary in results.items():
        lines.append(
            f"{name:<28} {summary['p50_ms']:>12.4f} {summary['ops_per_s']:>14.1f}"
        )
    return "\n".join(lines)


def load_trajectory(path: str | Path = BENCH_JSON) -> dict:
    """Read the trajectory file, or an empty skeleton if absent."""
    path = Path(path)
    if path.exists():
        return json.loads(path.read_text())
    return {
        "benchmark": "python -m repro.bench xml",
        "units": {"p50_ms": "median wall ms per operation", "ops_per_s": "1 / p50"},
        "entries": [],
    }


def record_entry(
    label: str,
    results: dict[str, dict],
    *,
    path: str | Path = BENCH_JSON,
    notes: str = "",
) -> dict:
    """Append a labelled entry to the committed trajectory file."""
    trajectory = load_trajectory(path)
    entry = {
        "label": label,
        "date": time.strftime("%Y-%m-%d"),
        "results": results,
    }
    if notes:
        entry["notes"] = notes
    trajectory["entries"].append(entry)
    Path(path).write_text(json.dumps(trajectory, indent=2) + "\n")
    return entry


def speedup_between(trajectory: dict, case: str, older: str, newer: str) -> float:
    """ops/s ratio newer/older for one case across two labelled entries."""
    by_label = {entry["label"]: entry["results"] for entry in trajectory["entries"]}
    return by_label[newer][case]["ops_per_s"] / by_label[older][case]["ops_per_s"]
