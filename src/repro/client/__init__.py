"""Client side: dynamic proxies, invocation strategies, futures."""

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
    "Call",
    "ClientConfig",
    "InvocationFuture",
    "Invoker",
    "KeepAliveSerialInvoker",
    "ResultArray",
    "SerialInvoker",
    "ServiceProxy",
    "ThreadedInvoker",
    "build_proxy",
    "wait_all",
]
