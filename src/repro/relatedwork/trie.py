"""Tag-matching trie, reproducing the optimization of Chiu et al. (HPDC-11).

"Investigating the Limits of SOAP Performance for Scientific Computing"
reduces the number of string comparisons during deserialization by
matching incoming XML tags against the *expected* tag set with a trie
instead of repeated ``strcmp`` calls.  The ablation bench compares
:class:`TagTrie` against a linear scan; the live deserializer resolves
operations with one ``dict`` look-up.
"""

from __future__ import annotations

from typing import Any, Iterator


class _Node:
    __slots__ = ("children", "value", "terminal")

    def __init__(self) -> None:
        self.children: dict[str, "_Node"] = {}
        self.value: Any = None
        self.terminal = False


class TagTrie:
    """Map strings (tag names) to arbitrary values via character trie."""

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def insert(self, key: str, value: Any) -> None:
        """Insert or replace ``key``."""
        node = self._root
        for ch in key:
            nxt = node.children.get(ch)
            if nxt is None:
                nxt = _Node()
                node.children[ch] = nxt
            node = nxt
        if not node.terminal:
            self._size += 1
        node.terminal = True
        node.value = value

    def lookup(self, key: str) -> Any:
        """Return the value for ``key`` or None when absent."""
        node = self._find(key)
        return node.value if node is not None and node.terminal else None

    def __contains__(self, key: str) -> bool:
        node = self._find(key)
        return node is not None and node.terminal

    def __len__(self) -> int:
        return self._size

    def longest_prefix(self, text: str) -> tuple[str, Any] | None:
        """Longest inserted key that prefixes ``text`` (used for
        namespace-URI bucketing)."""
        node = self._root
        best: tuple[str, Any] | None = ("", node.value) if node.terminal else None
        for i, ch in enumerate(text):
            node = node.children.get(ch)
            if node is None:
                break
            if node.terminal:
                best = (text[: i + 1], node.value)
        return best

    def keys(self) -> Iterator[str]:
        """Inserted keys in sorted order."""
        yield from self._iter(self._root, "")

    def _iter(self, node: _Node, prefix: str) -> Iterator[str]:
        if node.terminal:
            yield prefix
        for ch in sorted(node.children):
            yield from self._iter(node.children[ch], prefix + ch)

    def _find(self, key: str) -> _Node | None:
        node = self._root
        for ch in key:
            node = node.children.get(ch)
            if node is None:
                return None
        return node


class LinearTagMatcher:
    """Baseline matcher doing one string comparison per candidate.

    Exists purely so the ablation bench can quantify the trie's benefit
    the way Chiu et al. did.
    """

    def __init__(self) -> None:
        self._entries: list[tuple[str, Any]] = []

    def insert(self, key: str, value: Any) -> None:
        """Insert or replace ``key``."""
        for i, (existing, _) in enumerate(self._entries):
            if existing == key:
                self._entries[i] = (key, value)
                return
        self._entries.append((key, value))

    def lookup(self, key: str) -> Any:
        """Value for ``key`` via linear scan, or None."""
        for existing, value in self._entries:
            if existing == key:
                return value
        return None

    def __contains__(self, key: str) -> bool:
        return any(existing == key for existing, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)
