"""From-scratch XML substrate: escaping, namespaces, tree, parsers, writer.

This package is the lowest layer of the reproduction — everything a
SOAP engine needs from an XML library, with no dependency on stdlib
``xml``:

* :mod:`repro.xmlcore.escape` — entity escaping/unescaping
* :mod:`repro.xmlcore.qname` — qualified names, namespace scopes
* :mod:`repro.xmlcore.tree` — element tree (DOM-like)
* :mod:`repro.xmlcore.lexer` — tokenizer
* :mod:`repro.xmlcore.treebuilder` — fused scanner: tree builder and pull API
* :mod:`repro.xmlcore.api` — the unified ``parse(source, mode=...)`` facade
* :mod:`repro.xmlcore.writer` — streaming writer and tree serializer

``parse(source)`` / ``parse(source, mode="cursor")`` is the one public
entry point for reading XML; both modes are fronts of one
:class:`XmlScanner`.
"""

from repro.xmlcore.api import parse
from repro.xmlcore.escape import escape_attribute, escape_text, unescape
from repro.xmlcore.qname import QName, NamespaceScope
from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner, build_tree
from repro.xmlcore.writer import StreamingWriter, serialize, serialize_bytes

__all__ = [
    "Element",
    "NamespaceScope",
    "QName",
    "StreamingWriter",
    "XmlScanner",
    "build_tree",
    "escape_attribute",
    "escape_text",
    "parse",
    "serialize",
    "serialize_bytes",
    "unescape",
]
