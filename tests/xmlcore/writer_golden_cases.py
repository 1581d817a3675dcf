"""The writer's golden corpus: trees and event sequences whose exact
output is pinned in ``golden/writer.json``.

The JSON was rendered at the commit *before* the writer's per-node memo
(PR 15) — ``shared_attribute_tuples`` at the commit before the memo of
whole attribute tuples (PR 19) — so the test holds the memo writer to
byte-identity with the writer it replaced.  Regenerate — only for a deliberate output change —
with ``PYTHONPATH=src python -m tests.xmlcore.writer_golden_cases``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.soap.envelope import Envelope
from repro.xmlcore.qname import QName
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import StreamingWriter, serialize

GOLDEN = Path(__file__).parent / "golden" / "writer.json"

A, B = "urn:a", "urn:b"
EVERY_ESCAPE = "&<>\"' \t\n]]>é中🎉"


def _nsmap_on_inner_elements() -> str:
    root = Element(f"{{{A}}}root", nsmap={"p": A})
    for index in range(3):  # the same tag before, inside and after a rebinding
        root.subelement(f"{{{A}}}item", {"n": str(index)}, text="x")
    inner = root.subelement(f"{{{B}}}inner", nsmap={"p": B, "q": A})
    inner.subelement(f"{{{A}}}item", {"n": "in"}, text="x")  # p is shadowed: q:item
    inner.subelement(f"{{{B}}}item", {f"{{{A}}}k": "v"})
    root.subelement(f"{{{A}}}item", {"n": "after"}, text="x")
    leaf = root.subelement(f"{{{A}}}item", nsmap={"p": A})  # redundant redeclaration
    leaf.subelement(f"{{{A}}}item")
    return serialize(root)


def _generated_prefixes() -> str:
    root = Element("root")
    for index in range(3):  # no prefix in scope: ns0, ns1, ns2 — never reused
        row = root.subelement(f"{{{A}}}row", {f"{{{B}}}id": str(index)})
        row.subelement(f"{{{A}}}cell", text="c")  # inherits the generated prefix
        row.subelement(f"{{{B}}}cell", {f"{{{A}}}k": "v"})
    taken = root.subelement("holder", nsmap={"ns4": "urn:taken"})
    taken.subelement("{urn:new}x")
    taken.subelement("{urn:new}x")
    return serialize(root)


def _default_namespace() -> str:
    root = Element(f"{{{A}}}root", nsmap={"": A})
    root.subelement(f"{{{A}}}child", {"plain": "1"})
    bare = root.subelement("bare")  # needs xmlns=""
    bare.subelement("bare")  # inherits the reset
    bare.subelement(f"{{{A}}}back")  # default is gone: generated prefix
    root.subelement("bare")  # needs xmlns="" again
    root.subelement(f"{{{A}}}child", {f"{{{A}}}qualified": "2"})  # attribute can't use ""
    shadow = root.subelement(f"{{{B}}}shadow", nsmap={"": B})
    shadow.subelement(f"{{{B}}}child")
    shadow.subelement(f"{{{A}}}child")
    root.subelement(f"{{{A}}}child")  # default restored
    return serialize(root, declaration=True)


def _every_escape() -> str:
    root = Element("r", {"a": EVERY_ESCAPE, f"{{{A}}}b": EVERY_ESCAPE}, nsmap={"p": A, "u": "urn:x?a=1&b=\"2\""})
    root.append(EVERY_ESCAPE)
    for _ in range(2):
        root.subelement("e", {"a": EVERY_ESCAPE, "clean": "value"}, text=EVERY_ESCAPE)
    return serialize(root)


def _content_shapes() -> str:
    root = Element("r")
    root.subelement("empty")
    root.subelement("blank").append("")
    root.subelement("blanks").extend(["", ""])
    late = root.subelement("late")
    late.extend(["", "text", ""])
    mixed = root.subelement("mixed")
    mixed.extend(["a", Element("b"), "", Element("c"), "d"])
    only = root.subelement("only")
    only.subelement("child")
    blank_then_child = root.subelement("bc")
    blank_then_child.extend(["", Element("child")])
    return serialize(root)


def _packed_envelope() -> str:
    envelope = Envelope()
    pack = Element("{urn:spi}Parallel_Method", nsmap={"spi": "urn:spi", "m0": "urn:svc"})
    for index in range(3):
        entry = pack.subelement("{urn:svc}echo", {"requestID": f"r{index}"})
        entry.subelement(
            "payload",
            {"{http://www.w3.org/2001/XMLSchema-instance}type": "xsd:string"},
            text=f"value & <{index}>",
        )
        entry.subelement("note", {"{http://www.w3.org/2001/XMLSchema-instance}nil": "true"})
    envelope.add_body(pack)
    envelope.add_body(Element("{urn:other}single", nsmap={"o": "urn:other"}))
    envelope.add_header(Element("{urn:h}token", nsmap={"h": "urn:h"}), must_understand=True)
    return envelope.to_string()


def _shared_attribute_tuples() -> str:
    # One tuple object on every element, as the RPC codec and the reader
    # share them: its rendered text must not outlive the scope that made it.
    qualified = ((f"{{{A}}}k", EVERY_ESCAPE), ("plain", "v"))
    foreign = ((f"{{{B}}}id", "1"),)
    root = Element("root", nsmap={"p": A})
    root.subelement("e", qualified)
    root.subelement("e", qualified)  # from the memo
    rebound = root.subelement("holder", nsmap={"p": "urn:other", "q": A})
    rebound.subelement("e", qualified)  # p is rebound: q:k
    rebound.subelement("e", qualified)
    root.subelement("e", qualified)  # p:k again
    for _ in range(2):  # no prefix for urn:b: a fresh nsN on each element
        row = root.subelement("e", foreign)
        row.subelement("e", foreign)  # inherits its parent's nsN
    default = root.subelement(f"{{{A}}}d", nsmap={"": A})
    default.subelement(f"{{{A}}}d", qualified)  # an attribute never takes the default
    return serialize(root)


def _streaming_events() -> str:
    writer = StreamingWriter(declaration=True)
    writer.start(QName(A, "root"), {"plain": "1", QName(B, "q"): "2"}, {"a": A})
    writer.comment(" note ")
    writer.element(f"{{{A}}}leaf", "text", [("k", "v")])
    writer.element(f"{{{A}}}leaf", "", {"k": EVERY_ESCAPE})
    writer.processing_instruction("target", "data")
    writer.start(f"{{{B}}}second")
    writer.characters("")
    writer.raw("<raw/>")
    writer.end()
    writer.start(f"{{{B}}}second")
    writer.end()
    writer.end()
    return writer.getvalue()


CASES = {
    "nsmap_on_inner_elements": _nsmap_on_inner_elements,
    "generated_prefixes": _generated_prefixes,
    "default_namespace": _default_namespace,
    "every_escape": _every_escape,
    "content_shapes": _content_shapes,
    "packed_envelope": _packed_envelope,
    "shared_attribute_tuples": _shared_attribute_tuples,
    "streaming_events": _streaming_events,
}


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: build() for name, build in CASES.items()}, indent=1, ensure_ascii=False)
        + "\n",
        encoding="utf-8",
    )
