"""Server-side WS-Security enforcement as a handler-chain plugin.

Deploy a :class:`SecurityVerifyHandler` ahead of the SPI dispatcher to
require a valid signed UsernameToken on every message.  Because the
signature covers the Body's octets as they arrived, one token
authenticates an entire packed batch — which is exactly the
amortization the paper's §4.2 WS-Security argument relies on.  The
handler digests the span the reader recorded and reads no entry.  It
counts ``security.verified``, ``security.rejected`` and
``security.anonymous`` into the registry it is given.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Callable

from repro.errors import SecurityError
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import span as obs_span
from repro.server.handlers import Handler, MessageContext
from repro.soap.wssecurity import DEFAULT_FRESHNESS, SECURITY_TAG, verify_security_header


class SecurityVerifyHandler(Handler):
    """Rejects messages whose wsse:Security header does not verify.

    ``lookup_secret(username) -> bytes | None`` supplies shared secrets.
    Verification failures raise :class:`SecurityError`, which the
    endpoint maps to a Server fault for the whole message (there is no
    per-entry isolation for authentication: an unauthenticated packed
    message must not execute any of its entries).
    """

    name = "wss-verify"

    def __init__(
        self,
        lookup_secret: Callable[[str], bytes | None],
        *,
        freshness: timedelta = DEFAULT_FRESHNESS,
        required: bool = True,
        registry: MetricsRegistry | None = None,
    ) -> None:
        """``registry``: where the verify outcomes count (the handler's
        own when none is given)."""
        self._lookup_secret = lookup_secret
        self._freshness = freshness
        self._required = required
        self.registry = registry if registry is not None else MetricsRegistry()
        self._verified = self.registry.counter("security.verified")
        self._rejected = self.registry.counter("security.rejected")
        self._anonymous = self.registry.counter("security.anonymous")

    def invoke_request(self, context: MessageContext) -> None:
        envelope = context.request_envelope
        if envelope.find_header(SECURITY_TAG) is None and not self._required:
            self._anonymous.inc()
            return
        try:
            with obs_span("security.verify"):
                verify_security_header(
                    envelope, self._lookup_secret, freshness=self._freshness
                )
        except SecurityError:
            self._rejected.inc()
            raise
        context.understood_headers.add(SECURITY_TAG)
        self._verified.inc()
