"""Client-side parameterized response caching.

The application-aware interface already collapses M calls into one
message; this layer removes the message entirely when the *answer* is
already known.  Devaram & Andresen ("SOAP optimization via
parameterized client-side caching") showed SOAP response caching keyed
by call parameters pays for itself quickly on read-mostly services;
here the idea lands :class:`CallPolicy`-style — a small frozen
:class:`CachePolicy` carried by the proxy, consulted in
``ServiceProxy.exchange`` *outside* the resilience retry loop, so
retries always go to the wire and can never replay a cached body as a
fresh success.

Semantics:

* **Key** — ``(namespace, operation, canonicalized params)`` via
  :func:`response_cache_key`; dict params are order-insensitive.
* **TTL + LRU** — entries expire ``ttl`` seconds after insertion
  (monotonic, injectable clock) and the store is a bounded LRU.
* **Single-flight** — concurrent misses on one key collapse to one
  wire exchange; followers park on an event and re-check.  If the
  leader fails, its exception stays its own: the next waiter promotes
  itself to leader and retries the fetch.
* **Invalidation** — :meth:`ResponseCache.invalidate` drops matching
  entries and bumps a version counter checked at insert time, so a
  fetch that was in flight across the invalidation cannot re-insert a
  stale body.

Every count is a ``cache.client.*`` counter in one
:class:`~repro.obs.registry.MetricsRegistry` — the one given, or the
cache's own.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.obs.registry import MetricsRegistry

DEFAULT_TTL = 30.0
DEFAULT_MAX_ENTRIES = 128


@dataclass(frozen=True, slots=True)
class CachePolicy:
    """What a proxy is allowed to answer from cache.

    ``ttl`` is seconds-until-stale (``None`` = only explicit
    invalidation evicts); ``operations`` restricts caching to the named
    operations (``None`` = all — appropriate only for read-only
    services; anything with side effects must be listed out).
    """

    ttl: float | None = DEFAULT_TTL
    max_entries: int = DEFAULT_MAX_ENTRIES
    operations: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        if self.max_entries < 1:
            raise ValueError("max_entries must be positive")

    def is_cacheable(self, operation: str) -> bool:
        """True when responses of ``operation`` may be cached."""
        return self.operations is None or operation in self.operations


#: Read-mostly default: cache everything for 30 s, 128 entries.
DEFAULT_CACHE_POLICY = CachePolicy()


def is_fault_free(body: bytes) -> bool:
    """Conservative fault screen: may ``body`` be stored as known-good?

    Any body that might carry a SOAP Fault — a 500 single-entry fault,
    or a per-entry fault inside a packed response — must not be.
    Probing for the substring is deliberately over-broad: a payload that
    merely *mentions* "Fault" costs one skipped insertion, never a wrong
    cache hit.
    """
    return b"Fault" not in body


def response_cache_key(
    namespace: str, operation: str, params: Mapping[str, Any]
) -> tuple:
    """The canonical cache key for one call.

    Parameter containers are canonicalized recursively (dicts sorted by
    key) and every leaf is tagged with its type name, so ``1`` and
    ``True`` — equal and hash-equal in Python — key separately, as they
    serialize differently.
    """
    return (
        namespace,
        operation,
        tuple(sorted((name, _canonical(value)) for name, value in params.items())),
    )


def _canonical(value: Any) -> Any:
    if isinstance(value, Mapping):
        return ("map",) + tuple(
            sorted((key, _canonical(item)) for key, item in value.items())
        )
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(_canonical(item) for item in value)
    if value is None or isinstance(value, (str, bytes, int, float, bool)):
        return (type(value).__name__, value)
    # Unknown leaf: fall back to repr — stable within a process for the
    # value types the serializer accepts.
    return ("repr", repr(value))


class ResponseCache:
    """Bounded TTL+LRU response store with single-flight fetching.

    Thread-safe; share one instance across proxies pointing at the same
    service.  Values are opaque to the cache (the proxy stores raw
    response body bytes, which are immutable — no aliasing hazards).
    """

    __slots__ = ("policy", "registry", "_lock", "_entries", "_inflight",
                 "_version", "_clock", "_hits", "_misses", "_coalesced",
                 "_expirations", "_evictions", "_invalidations")

    def __init__(
        self,
        policy: CachePolicy = DEFAULT_CACHE_POLICY,
        *,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        # key -> (expires_at | None, value); OrderedDict gives LRU order
        self._entries: OrderedDict[tuple, tuple[float | None, Any]] = OrderedDict()
        self._inflight: dict[tuple, threading.Event] = {}
        self._version = 0
        self._clock = clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self._hits = self.registry.counter("cache.client.hit")
        self._misses = self.registry.counter("cache.client.miss")
        self._coalesced = self.registry.counter("cache.client.coalesced")
        self._expirations = self.registry.counter("cache.client.expirations")
        self._evictions = self.registry.counter("cache.client.evictions")
        self._invalidations = self.registry.counter("cache.client.invalidations")

    # -- lookup --------------------------------------------------------

    def get_or_fetch(
        self,
        key: tuple,
        fetch: Callable[[], Any],
        *,
        validate: Callable[[Any], bool] | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``; on a miss, run ``fetch`` and
        store its result.

        ``validate`` gates insertion only: a value it rejects (e.g. a
        body carrying a SOAP fault) is returned to this caller but
        never stored.  ``fetch`` exceptions propagate uncached.
        """
        while True:
            event = None
            with self._lock:
                found = self._lookup_locked(key)
                if found is not None:
                    self._hits.inc()
                    return found[0], True
                event = self._inflight.get(key)
                if event is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    version = self._version
                    break
                self._coalesced.inc()
            # Another thread is fetching this key: park, then re-check.
            # If the leader failed we will find no entry and promote
            # ourselves to leader on the next loop.
            event.wait()

        try:
            value = fetch()
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            event.set()
        self._misses.inc()
        if validate is None or validate(value):
            with self._lock:
                if self._version == version:
                    self._store_locked(key, value)
        return value, False

    def _lookup_locked(self, key: tuple) -> tuple[Any] | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        expires_at, value = entry
        if expires_at is not None and self._clock() >= expires_at:
            del self._entries[key]
            self._expirations.inc()
            return None
        self._entries.move_to_end(key)
        return (value,)

    def _store_locked(self, key: tuple, value: Any) -> None:
        ttl = self.policy.ttl
        expires_at = None if ttl is None else self._clock() + ttl
        self._entries[key] = (expires_at, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.policy.max_entries:
            self._entries.popitem(last=False)
            self._evictions.inc()

    # -- maintenance ---------------------------------------------------

    def invalidate(
        self, *, namespace: str | None = None, operation: str | None = None
    ) -> int:
        """Drop entries for a service/operation (or everything) and bar
        in-flight fetches from inserting; returns the count dropped."""
        with self._lock:
            self._version += 1
            self._invalidations.inc()
            if namespace is None and operation is None:
                dropped = len(self._entries)
                self._entries.clear()
                return dropped
            doomed = [
                key
                for key in self._entries
                if (namespace is None or key[0] == namespace)
                and (operation is None or key[1] == operation)
            ]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
