"""Deprecated token-stream tree parser (now an alias layer).

The tree build moved to :mod:`repro.xmlcore.treebuilder`, which fuses
lexing and parsing into one pass; the unified entry point is
:func:`repro.xmlcore.parse`.  This module keeps the old ``parse`` name
alive as a thin deprecated alias.
"""

from __future__ import annotations

import warnings

from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import build_tree, decode_document

__all__ = ["parse", "decode_document"]


def parse(source: str | bytes) -> Element:
    """Deprecated alias for :func:`repro.xmlcore.parse`."""
    warnings.warn(
        "repro.xmlcore.parser.parse is deprecated; use repro.xmlcore.parse",
        DeprecationWarning,
        stacklevel=2,
    )
    return build_tree(source)
