"""One :class:`ClientConfig` + :func:`build_proxy` for every client.

The client-side mirror of PR-8's :class:`~repro.server.config.ServerConfig`:
before this module, standing up a proxy meant threading thirteen keyword
arguments through :class:`~repro.client.proxy.ServiceProxy` — and the
adaptive-resilience knobs (hedging, AIMD limiting) would have made it
fifteen.  Now every knob lives in one frozen dataclass and one facade
builds the proxy::

    from repro.client import ClientConfig, build_proxy
    from repro.resilience import AdaptiveLimiter, HedgePolicy

    proxy = build_proxy(ClientConfig(
        transport, address,
        namespace="urn:echo",
        reuse_connections=True,
        hedge=HedgePolicy(quantile=0.95),   # tail-at-scale hedging
        limiter=AdaptiveLimiter(),          # AIMD concurrency window
    ))
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.soap.wssecurity import Credentials

from repro.errors import InvocationError
from repro.http.compression import CompressionPolicy
from repro.obs.trace import Tracer
from repro.resilience.hedge import HedgePolicy
from repro.resilience.limiter import AdaptiveLimiter
from repro.resilience.policy import CallPolicy
from repro.transport.base import Address, Transport
from repro.wsdl.model import WsdlService
from repro.xmlcore.tree import Element


@dataclasses.dataclass(frozen=True)
class ClientConfig:
    """Everything needed to build one service proxy.

    Grouped by layer:

    * **wire** — ``transport``, ``address``, ``path``,
      ``reuse_connections`` (keep-alive pool vs the paper's
      fresh-connection baseline), ``accept_encoding`` /
      ``request_compression``;
    * **service** — ``namespace``, ``service_name``, ``interface``
      (WSDL-checked operations), ``extra_headers``, ``credentials``
      (WS-Security UsernameToken);
    * **resilience** — ``policy`` (timeout/deadline/retries), ``hedge``
      (tail-at-scale speculative attempts), ``limiter`` (AIMD adaptive
      concurrency window);
    * **observability** — ``tracer``.
    """

    transport: Transport | None = None
    address: Address = None
    namespace: str = ""
    service_name: str = "Service"
    path: str | None = None
    reuse_connections: bool = False
    interface: WsdlService | None = None
    extra_headers: Sequence[Element] = ()
    credentials: "Credentials | None" = None
    tracer: Tracer | None = None
    policy: CallPolicy | None = None
    hedge: HedgePolicy | None = None
    limiter: AdaptiveLimiter | None = None
    accept_encoding: str | None = None
    request_compression: CompressionPolicy | None = None

    def __post_init__(self) -> None:
        if self.transport is None:
            raise InvocationError("ClientConfig.transport is required")
        if self.address is None:
            raise InvocationError("ClientConfig.address is required")
        if not self.namespace:
            raise InvocationError("ClientConfig.namespace is required")
        if self.hedge is not None and not isinstance(self.hedge, HedgePolicy):
            raise InvocationError(
                f"ClientConfig.hedge must be a HedgePolicy, not {self.hedge!r}"
            )
        if self.limiter is not None and not isinstance(self.limiter, AdaptiveLimiter):
            raise InvocationError(
                "ClientConfig.limiter must be an AdaptiveLimiter, "
                f"not {self.limiter!r}"
            )

    def replace(self, **changes: Any) -> "ClientConfig":
        """A copy with ``changes`` applied (frozen-dataclass idiom)."""
        return dataclasses.replace(self, **changes)


def build_proxy(config: ClientConfig):
    """The facade: one config in, one ready-to-call proxy out."""
    from repro.client.proxy import ServiceProxy

    return ServiceProxy(config)

