"""Unified parse facade for the xmlcore package.

``parse(source)``
    Whole-document tree build (the fused scanner fast path).
``parse(source, mode="cursor")``
    An :class:`~repro.xmlcore.treebuilder.XmlScanner` positioned before
    the root element, for callers that navigate with its pull API
    instead of materializing.
"""

from __future__ import annotations

from typing import Union

from repro.xmlcore.tree import Element
from repro.xmlcore.treebuilder import XmlScanner, build_tree

__all__ = ["parse"]


def parse(
    source: str | bytes, *, mode: str = "tree"
) -> Union[Element, XmlScanner]:
    """Parse an XML document.

    Parameters
    ----------
    source:
        Complete document as ``str`` or (BOM/encoding-aware) ``bytes``.
    mode:
        ``"tree"`` (default) returns the root :class:`Element`;
        ``"cursor"`` returns an :class:`XmlScanner` for pull navigation.
    """
    if mode == "tree":
        return build_tree(source)
    if mode == "cursor":
        return XmlScanner(source)
    raise ValueError(f"unknown parse mode {mode!r} (expected 'tree' or 'cursor')")
