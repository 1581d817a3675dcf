"""Client side: dynamic proxies, invocation strategies, futures, caching."""

from repro.client.cache import (
    CachePolicy,
    ResponseCache,
    response_cache_key,
)
from repro.client.config import ClientConfig, build_proxy
from repro.client.futures import InvocationFuture, ResultArray, wait_all
from repro.client.invoker import (
    Call,
    Invoker,
    KeepAliveSerialInvoker,
    SerialInvoker,
    ThreadedInvoker,
)
from repro.client.proxy import ServiceProxy

__all__ = [
    "CachePolicy",
    "Call",
    "ClientConfig",
    "InvocationFuture",
    "Invoker",
    "KeepAliveSerialInvoker",
    "ResponseCache",
    "ResultArray",
    "SerialInvoker",
    "ServiceProxy",
    "ThreadedInvoker",
    "build_proxy",
    "response_cache_key",
    "wait_all",
]
