"""Positive fixture: caches keyed by what a request carries.

Each is grown from the dispatch entry with request data and nothing
evicts it, so a client decides how large the server grows.  The names
are incidental: the rule follows the keys, not ``*cache*``.
"""

from collections import OrderedDict


class UnboundedLookup:
    def __init__(self):
        self._result_cache = {}
        self._name_memo = dict()

    def lookup(self, key, name):
        found = self._result_cache.get(key)
        if found is None:
            found = self._result_cache[key] = self._name_memo.setdefault(name, key)
        return found


class UnboundedTemplates:
    def __init__(self):
        self._templates: dict[str, bytes] = OrderedDict()

    def render(self, action):
        template = self._templates.get(action)
        if template is None:
            template = self._templates[action] = action.encode()
        return template


class SoapEndpoint:
    def __init__(self):
        self.lookups = UnboundedLookup()
        self.templates = UnboundedTemplates()

    def __call__(self, request):
        self.lookups.lookup(request.key, request.operation)
        return self.templates.render(request.action)
