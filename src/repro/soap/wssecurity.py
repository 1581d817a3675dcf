"""Simulated WS-Security (OASIS WSS 1.0) headers.

The paper (§4.2, §5) argues that specifications which enlarge the SOAP
header — it names WS-Security explicitly — make the pack interface
*more* attractive, because packing amortizes one header over M requests.
What the experiment needs from WS-Security is therefore (a) realistic
header bytes per message and (b) per-message CPU work.  This module
provides both with real cryptography from the stdlib (UsernameToken
with nonce/created and an HMAC-SHA256 digest over the Body element's
octets as sent, ``<SOAP-ENV:Body`` through ``</SOAP-ENV:Body>`` in UTF-8,
with no XML canonicalization) while substituting HMAC for the
X.509/XML-DSig machinery the full spec requires — see DESIGN.md §3
substitution 4.  The ``BinarySecurityToken`` and ``ds:Signature``
blocks are header ballast for the §4.2 overhead experiment, never
verified.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import secrets
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

from repro.errors import SecurityError
from repro.soap.constants import STANDARD_NSMAP, WSSE_NS, WSU_NS
from repro.soap.envelope import Envelope
from repro.xmlcore.tree import Element
from repro.xmlcore.writer import serialize

SECURITY_TAG = f"{{{WSSE_NS}}}Security"
_WSSE = f"{{{WSSE_NS}}}"
_WSU = f"{{{WSU_NS}}}"

DEFAULT_FRESHNESS = timedelta(minutes=5)


@dataclass(slots=True)
class Credentials:
    """Shared-secret credentials for UsernameToken + body HMAC."""

    username: str
    secret: bytes

    def digest(self, nonce: bytes, created: str, body: bytes) -> bytes:
        """HMAC-SHA256 over nonce + created + the Body's octets."""
        mac = hmac.new(self.secret, digestmod=hashlib.sha256)
        mac.update(nonce)
        mac.update(created.encode("ascii"))
        mac.update(body)
        return mac.digest()


XMLDSIG_NS = "http://www.w3.org/2000/09/xmldsig#"
_DS = f"{{{XMLDSIG_NS}}}"

# A WSS 1.0 message carrying an X.509 BinarySecurityToken plus an
# XML-DSig <Signature> runs 3-6 KB of header on real deployments.  The
# simulated certificate below reproduces that byte weight (the paper's
# WS-Security argument is precisely about header size); its contents
# are a deterministic function of the username, not a real certificate.
SIMULATED_CERT_BYTES = 1536


def _simulated_certificate(username: str) -> bytes:
    seed = hashlib.sha256(username.encode("utf-8")).digest()
    blocks = []
    while sum(len(b) for b in blocks) < SIMULATED_CERT_BYTES:
        seed = hashlib.sha256(seed).digest()
        blocks.append(seed)
    return b"".join(blocks)[:SIMULATED_CERT_BYTES]


def attach_security_header(
    envelope: Envelope,
    credentials: Credentials,
    *,
    now: datetime | None = None,
    must_understand: bool = True,
    include_certificate: bool = False,
) -> Element:
    """Seal ``envelope``'s Body, sign its octets and prepend a
    wsse:Security header entry.

    With ``include_certificate`` the header also carries a
    BinarySecurityToken and an XML-DSig-shaped Signature block, matching
    the size of a full WSS 1.0 X.509 profile header (~3-4 KB) — the
    configuration the WS-Security ablation bench measures.
    """
    created = (now or datetime.now(timezone.utc)).isoformat()
    nonce = secrets.token_bytes(16)
    body = envelope.seal_body()
    digest = credentials.digest(nonce, created, body)

    security = Element(SECURITY_TAG, nsmap={"wsse": WSSE_NS, "wsu": WSU_NS})
    token = security.subelement(_WSSE + "UsernameToken")
    token.subelement(_WSSE + "Username", text=credentials.username)
    token.subelement(
        _WSSE + "Nonce", text=base64.b64encode(nonce).decode("ascii")
    )
    token.subelement(_WSU + "Created", text=created)
    token.subelement(
        _WSSE + "Password",
        {"Type": "PasswordDigest"},
        text=base64.b64encode(digest).decode("ascii"),
    )
    if include_certificate:
        _attach_certificate_and_signature(security, credentials, body)
    envelope.header_entries.insert(0, security)
    if must_understand:
        from repro.soap.constants import MUST_UNDERSTAND_ATTR

        security.set(MUST_UNDERSTAND_ATTR, "1")
    return security


def _attach_certificate_and_signature(
    security: Element, credentials: Credentials, body: bytes
) -> None:
    certificate = _simulated_certificate(credentials.username)
    security.subelement(
        _WSSE + "BinarySecurityToken",
        {
            "ValueType": "X509v3",
            "EncodingType": "Base64Binary",
            _WSU + "Id": "X509Token",
        },
        text=base64.b64encode(certificate).decode("ascii"),
    )
    signature = security.subelement(_DS + "Signature", nsmap={"ds": XMLDSIG_NS})
    signed_info = signature.subelement(_DS + "SignedInfo")
    signed_info.subelement(
        _DS + "CanonicalizationMethod",
        {"Algorithm": "http://www.w3.org/2001/10/xml-exc-c14n#"},
    )
    signed_info.subelement(
        _DS + "SignatureMethod",
        {"Algorithm": "http://www.w3.org/2000/09/xmldsig#hmac-sha256"},
    )
    reference = signed_info.subelement(_DS + "Reference", {"URI": "#Body"})
    reference.subelement(
        _DS + "DigestMethod",
        {"Algorithm": "http://www.w3.org/2001/04/xmlenc#sha256"},
    )
    reference.subelement(
        _DS + "DigestValue",
        text=base64.b64encode(hashlib.sha256(body).digest()).decode("ascii"),
    )
    mac = hmac.new(credentials.secret, body, hashlib.sha256).digest()
    signature.subelement(
        _DS + "SignatureValue", text=base64.b64encode(mac).decode("ascii")
    )
    key_info = signature.subelement(_DS + "KeyInfo")
    reference_el = key_info.subelement(_WSSE + "SecurityTokenReference")
    reference_el.subelement(_WSSE + "Reference", {"URI": "#X509Token"})


def verify_security_header(
    envelope: Envelope,
    lookup_secret,
    *,
    now: datetime | None = None,
    freshness: timedelta = DEFAULT_FRESHNESS,
) -> str:
    """Verify the wsse:Security header; return the authenticated username.

    ``lookup_secret(username) -> bytes | None`` supplies the shared
    secret.  Raises :class:`SecurityError` on any failure: a missing or
    repeated header, unknown user, stale timestamp, a Body with no
    octets (built, not read or sealed) or read under namespace bindings
    other than :data:`STANDARD_NSMAP`, or digest mismatch.
    """
    headers = [entry for entry in envelope.header_entries if entry.tag == SECURITY_TAG]
    if not headers:
        raise SecurityError("no wsse:Security header present")
    if len(headers) > 1:
        raise SecurityError("more than one wsse:Security header")
    security = headers[0]
    token = security.find("UsernameToken")
    if token is None:
        raise SecurityError("Security header has no UsernameToken")

    username = token.findtext("Username", "") or ""
    nonce_b64 = token.findtext("Nonce", "") or ""
    created = token.findtext("Created", "") or ""
    digest_b64 = token.findtext("Password", "") or ""
    if not (username and nonce_b64 and created and digest_b64):
        raise SecurityError("UsernameToken is incomplete")

    secret = lookup_secret(username)
    if secret is None:
        raise SecurityError(f"unknown user '{username}'")

    try:
        created_at = datetime.fromisoformat(created)
    except ValueError:
        raise SecurityError(f"unparseable Created timestamp '{created}'") from None
    current = now or datetime.now(timezone.utc)
    if abs(current - created_at) > freshness:
        raise SecurityError("security token is stale")

    try:
        nonce = base64.b64decode(nonce_b64, validate=True)
        claimed = base64.b64decode(digest_b64, validate=True)
    except Exception:
        raise SecurityError("malformed base64 in security token") from None

    if envelope.source is None:
        raise SecurityError("the Body has no octets to verify")
    if envelope.body_scope != STANDARD_NSMAP:
        # the octets mean what the Envelope's declarations say; only the
        # ones the signer wrote the Body under are accepted
        raise SecurityError("the Body inherits namespace bindings other than SOAP-ENV, xsd and xsi")
    body = envelope.source[envelope.body_start : envelope.body_end].encode("utf-8")
    expected = Credentials(username, secret).digest(nonce, created, body)
    if not hmac.compare_digest(expected, claimed):
        raise SecurityError("body digest mismatch")
    return username


def security_header_overhead(
    credentials: Credentials, *, include_certificate: bool = False
) -> int:
    """Serialized size in bytes of one Security header entry — the
    per-message overhead the WS-Security ablation bench reports."""
    envelope = Envelope()
    envelope.add_body(Element("probe"))
    header = attach_security_header(
        envelope, credentials, include_certificate=include_certificate
    )
    return len(serialize(header).encode("utf-8"))
