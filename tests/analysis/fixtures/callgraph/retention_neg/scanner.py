"""Negative corpus: a per-document memo.  Its holder is built on the
request path, so the memo dies with the document it memoises."""


class XmlScanner:
    def __init__(self, source):
        self._source = source
        self._memo = {}

    def read(self, raw):
        found = self._memo.get(raw)
        if found is None:
            found = self._memo[raw] = raw.strip("<>")
        return found
