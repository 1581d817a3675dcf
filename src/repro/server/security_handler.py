"""Server-side WS-Security enforcement as a handler-chain plugin.

Deploy a :class:`SecurityVerifyHandler` ahead of the SPI dispatcher to
require a valid signed UsernameToken on every message.  Because the
signature covers the canonicalized Body, one token authenticates an
entire packed batch — which is exactly the amortization the paper's
§4.2 WS-Security argument relies on.
"""

from __future__ import annotations

import threading
from datetime import timedelta
from typing import Callable

from repro.errors import SecurityError
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
    ) -> None:
        self._lookup_secret = lookup_secret
        self._freshness = freshness
        self._required = required
        self._lock = threading.Lock()
        self.verified = 0
        self.rejected = 0
        self.anonymous = 0

    def invoke_request(self, context: MessageContext) -> None:
        envelope = context.request_envelope
        if envelope.find_header(SECURITY_TAG) is None and not self._required:
            with self._lock:
                self.anonymous += 1
            return
        try:
            with obs_span("security.verify"):
                verify_security_header(
                    envelope, self._lookup_secret, freshness=self._freshness
                )
        except SecurityError:
            with self._lock:
                self.rejected += 1
            raise
        context.understood_headers.add(SECURITY_TAG)
        with self._lock:
            self.verified += 1

    def snapshot(self) -> dict[str, int]:
        """verified/rejected/anonymous counters."""
        with self._lock:
            return {
                "verified": self.verified,
                "rejected": self.rejected,
                "anonymous": self.anonymous,
            }
