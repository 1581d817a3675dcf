"""Negative fixture: caches the dispatch entry touches whose size
request data does not decide: bounded, cleared, keyed by a literal, or
grown only where no entry reaches."""

from collections import OrderedDict


class BoundedLru:
    def __init__(self, max_entries=128):
        self._entry_cache = OrderedDict()
        self._max_entries = max_entries

    def store(self, key, value):
        self._entry_cache[key] = value
        while len(self._entry_cache) > self._max_entries:
            self._entry_cache.popitem(last=False)


class EvictingMemo:
    def __init__(self):
        self._memo = {}

    def remember(self, key, value):
        self._memo[key] = value
        self.trim()

    def trim(self):
        self._memo.clear()


class LiteralCache:
    def __init__(self):
        self._result_cache = {}

    def last(self, entry):
        self._result_cache["last"] = entry  # one slot, however named


class Router:
    def __init__(self):
        self._routes = dict()

    def register(self, action, handler):
        self._routes[action] = handler  # bound at deploy time

    def route(self, action):
        return self._routes.get(action)


class SoapEndpoint:
    def __init__(self, router):
        self.router = router
        self.signatures = BoundedLru()
        self.memo = EvictingMemo()
        self.cache = LiteralCache()

    def __call__(self, request):
        self.signatures.store(request.action, request.signature)
        self.memo.remember(request.key, request)
        self.cache.last(request)
        return self.router.route(request.action)
