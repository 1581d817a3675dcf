"""SOAP-encoding multiref resolution (Axis 1.x rpc/encoded interop).

Axis serializes repeated or shared objects as independent top-level
``<multiRef id="id0" ...>`` body entries referenced from parameter
positions via ``href="#id0"`` — e.g.::

    <soapenv:Body>
      <ns1:op>
        <arg href="#id0"/>
      </ns1:op>
      <multiRef id="id0" xsi:type="xsd:string">value</multiRef>
    </soapenv:Body>

:func:`resolve_multirefs` rewrites such a body entry list into plain
inlined form so the rest of the engine (including the SPI dispatcher)
never sees an href.  Cycles are rejected — rpc/encoded object graphs
with cycles cannot be represented by inlining, and none of the types
this engine decodes (scalars/arrays/structs) are cyclic.
"""

from __future__ import annotations

from repro.errors import SoapError
from repro.xmlcore.tree import Element

HREF_ATTR = "href"
ID_ATTR = "id"


def resolve_multirefs(entries: list[Element]) -> list[Element]:
    """Inline every href reference; returns the non-multiRef entries.

    The returned elements are rewritten copies, or the same elements
    when no entry has an ``id`` or ``href``; the input list is not
    mutated.  Raises :class:`SoapError` on dangling hrefs, non-local
    hrefs, duplicate ids, or reference cycles.
    """
    targets: dict[str, Element] = {}
    roots: list[Element] = []
    for entry in entries:
        identifier = entry.get(ID_ATTR)
        if identifier is not None:
            if identifier in targets:
                raise SoapError(f"duplicate multiRef id '{identifier}'")
            targets[identifier] = entry
        else:
            roots.append(entry)

    if not targets and not any(
        element.get(HREF_ATTR) is not None
        for root in roots
        for element in root.iter()
    ):
        return list(entries)

    resolving: set[str] = set()

    def inline(element: Element) -> Element:
        href = element.get(HREF_ATTR)
        if href is not None:
            if not href.startswith("#"):
                raise SoapError(f"only local hrefs are supported, got '{href}'")
            identifier = href[1:]
            target = targets.get(identifier)
            if target is None:
                raise SoapError(f"dangling href '#{identifier}'")
            if identifier in resolving:
                raise SoapError(f"multiRef cycle through '#{identifier}'")
            resolving.add(identifier)
            try:
                resolved = inline(target)
            finally:
                resolving.discard(identifier)
            # the reference element keeps its own name; it adopts the
            # target's type attributes and content
            merged = Element(element.tag)
            merged.replace_attributes(
                (name, value)
                for name, value in resolved.items()
                if name not in (ID_ATTR, HREF_ATTR)
            )
            merged.children = resolved.children
            return merged

        clone = Element(element.tag)
        clone.replace_attributes(
            (name, value) for name, value in element.items() if name != ID_ATTR
        )
        for child in element.children:
            clone.children.append(child if isinstance(child, str) else inline(child))
        return clone

    return [inline(root) for root in roots]
