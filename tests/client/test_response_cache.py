"""Unit tests for the client-side parameterized response cache (PR-6)."""

import threading

import pytest

from repro.client.cache import (
    CachePolicy,
    ResponseCache,
    response_cache_key,
)

from ..metrics import counters


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_cache(policy=None, clock=None):
    return ResponseCache(
        policy or CachePolicy(), clock=clock or FakeClock()
    )


class TestKey:
    def test_param_order_is_insignificant(self):
        a = response_cache_key("ns", "op", {"x": 1, "y": 2})
        b = response_cache_key("ns", "op", {"y": 2, "x": 1})
        assert a == b

    def test_bool_and_int_key_separately(self):
        assert response_cache_key("ns", "op", {"x": 1}) != response_cache_key(
            "ns", "op", {"x": True}
        )

    def test_nested_containers(self):
        a = response_cache_key("ns", "op", {"x": {"b": 2, "a": [1, 2]}})
        b = response_cache_key("ns", "op", {"x": {"a": [1, 2], "b": 2}})
        assert a == b
        assert a != response_cache_key("ns", "op", {"x": {"a": [2, 1], "b": 2}})


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CachePolicy(ttl=0)
        with pytest.raises(ValueError):
            CachePolicy(max_entries=0)

    def test_operation_allowlist(self):
        policy = CachePolicy(operations=frozenset({"read"}))
        assert policy.is_cacheable("read")
        assert not policy.is_cacheable("write")


class TestTtlAndLru:
    def test_hit_within_ttl(self):
        cache = make_cache(CachePolicy(ttl=10))
        key = response_cache_key("ns", "op", {})
        assert cache.get_or_fetch(key, lambda: "v1") == ("v1", False)
        assert cache.get_or_fetch(key, lambda: "v2") == ("v1", True)

    def test_expiry_refetches(self):
        clock = FakeClock()
        cache = make_cache(CachePolicy(ttl=10), clock=clock)
        key = response_cache_key("ns", "op", {})
        cache.get_or_fetch(key, lambda: "v1")
        clock.now += 10
        assert cache.get_or_fetch(key, lambda: "v2") == ("v2", False)
        assert counters(cache)["cache.client.expirations"] == 1

    def test_ttl_none_never_expires(self):
        clock = FakeClock()
        cache = make_cache(CachePolicy(ttl=None), clock=clock)
        key = response_cache_key("ns", "op", {})
        cache.get_or_fetch(key, lambda: "v1")
        clock.now += 1e9
        assert cache.get_or_fetch(key, lambda: "v2") == ("v1", True)

    def test_lru_eviction(self):
        cache = make_cache(CachePolicy(max_entries=2))
        keys = [response_cache_key("ns", "op", {"i": i}) for i in range(3)]
        for i, key in enumerate(keys):
            cache.get_or_fetch(key, lambda i=i: i)
        assert len(cache) == 2
        assert counters(cache)["cache.client.evictions"] == 1
        # keys[0] was evicted; keys[2] still present
        assert cache.get_or_fetch(keys[2], lambda: "new") == (2, True)
        assert cache.get_or_fetch(keys[0], lambda: "new") == ("new", False)


class TestInvalidation:
    def test_invalidate_scopes(self):
        cache = make_cache()
        for ns, op in (("a", "x"), ("a", "y"), ("b", "x")):
            cache.get_or_fetch(
                response_cache_key(ns, op, {}), lambda: "v"
            )
        assert cache.invalidate(namespace="a", operation="x") == 1
        assert cache.invalidate(namespace="b") == 1
        assert cache.invalidate() == 1
        assert len(cache) == 0

    def test_inflight_fetch_cannot_insert_across_invalidation(self):
        cache = make_cache()
        key = response_cache_key("ns", "op", {})

        def fetch():
            # interface changes while this response is in flight
            cache.invalidate()
            return "stale"

        value, was_hit = cache.get_or_fetch(key, fetch)
        assert (value, was_hit) == ("stale", False)
        assert len(cache) == 0  # never stored
        assert cache.get_or_fetch(key, lambda: "fresh") == ("fresh", False)

    def test_validate_gates_insertion_only(self):
        cache = make_cache()
        key = response_cache_key("ns", "op", {})
        value, was_hit = cache.get_or_fetch(
            key, lambda: b"<Fault/>", validate=lambda body: b"Fault" not in body
        )
        assert value == b"<Fault/>" and not was_hit
        assert len(cache) == 0


class TestSingleFlight:
    def test_concurrent_misses_coalesce(self):
        cache = make_cache()
        key = response_cache_key("ns", "op", {})
        release = threading.Event()
        fetches = []

        def fetch():
            fetches.append(1)
            release.wait(timeout=5)
            return "v"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_fetch(key, fetch))
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        # let followers park on the leader before it completes
        deadline = threading.Event()
        deadline.wait(timeout=0.1)
        release.set()
        for t in threads:
            t.join(timeout=5)
        assert len(fetches) == 1
        assert {value for value, _ in results} == {"v"}
        assert counters(cache)["cache.client.coalesced"] >= 1

    def test_follower_promotes_when_leader_fails(self):
        cache = make_cache()
        key = response_cache_key("ns", "op", {})
        started = threading.Event()
        fail_leader = threading.Event()

        def failing_fetch():
            started.set()
            fail_leader.wait(timeout=5)
            raise RuntimeError("leader died")

        outcome = {}

        def leader():
            try:
                cache.get_or_fetch(key, failing_fetch)
            except RuntimeError as exc:
                outcome["leader"] = exc

        def follower():
            started.wait(timeout=5)
            outcome["follower"] = cache.get_or_fetch(key, lambda: "recovered")

        t1 = threading.Thread(target=leader)
        t2 = threading.Thread(target=follower)
        t1.start()
        t2.start()
        started.wait(timeout=5)
        # give the follower a moment to park, then fail the leader
        pause = threading.Event()
        pause.wait(timeout=0.1)
        fail_leader.set()
        t1.join(timeout=5)
        t2.join(timeout=5)
        assert isinstance(outcome["leader"], RuntimeError)
        assert outcome["follower"] == ("recovered", False)
