"""Unit tests for the simulated WS-Security headers."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.errors import SecurityError
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope
from repro.soap.wssecurity import (
    SECURITY_TAG,
    Credentials,
    attach_security_header,
    security_header_overhead,
    verify_security_header,
)
from repro.xmlcore.tree import Element

NS = "urn:svc"
NOW = datetime(2006, 9, 25, 12, 0, 0, tzinfo=timezone.utc)
CREDS = Credentials("alice", b"super-secret")


def secrets_db(username):
    return {"alice": b"super-secret", "bob": b"other"}.get(username)


def signed_envelope(params=None, now=NOW):
    env = build_request_envelope(NS, "echo", params or {"payload": "hi"})
    attach_security_header(env, CREDS, now=now)
    return Envelope.parse(env.to_bytes(), server=True)


class TestSignVerify:
    def test_verify_accepts_valid(self):
        env = signed_envelope()
        assert verify_security_header(env, secrets_db, now=NOW) == "alice"

    def test_header_survives_wire(self):
        env = signed_envelope()
        assert env.find_header(SECURITY_TAG) is not None

    def test_must_understand_by_default(self):
        env = build_request_envelope(NS, "echo", {})
        header = attach_security_header(env, CREDS, now=NOW)
        assert header.get(
            "{http://schemas.xmlsoap.org/soap/envelope/}mustUnderstand"
        ) == "1"

    def test_missing_header_raises(self):
        env = build_request_envelope(NS, "echo", {})
        with pytest.raises(SecurityError, match="no wsse:Security"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_unknown_user_raises(self):
        env = build_request_envelope(NS, "echo", {})
        attach_security_header(env, Credentials("mallory", b"x"), now=NOW)
        with pytest.raises(SecurityError, match="unknown user"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_wrong_secret_raises(self):
        env = build_request_envelope(NS, "echo", {})
        attach_security_header(env, Credentials("alice", b"WRONG"), now=NOW)
        wire = Envelope.parse(env.to_bytes(), server=True)
        with pytest.raises(SecurityError, match="digest mismatch"):
            verify_security_header(wire, secrets_db, now=NOW)

    def test_tampered_body_raises(self):
        env = build_request_envelope(NS, "echo", {"payload": "original"})
        attach_security_header(env, CREDS, now=NOW)
        wire = env.to_bytes()
        assert b">original<" in wire
        tampered = Envelope.parse(wire.replace(b">original<", b">tampered<"), server=True)
        with pytest.raises(SecurityError, match="digest mismatch"):
            verify_security_header(tampered, secrets_db, now=NOW)

    def test_duplicate_security_header_raises(self):
        """A second Security header is rejected, not left unexamined."""
        signed = build_request_envelope(NS, "echo", {"payload": "hi"})
        attach_security_header(signed, CREDS, now=NOW)
        text = signed.to_bytes().decode("utf-8")
        start, end = text.index("<wsse:Security"), text.index("</wsse:Security>") + 16
        doubled = text[:end] + text[start:end] + text[end:]
        env = Envelope.parse(doubled, server=True)
        with pytest.raises(SecurityError, match="more than one"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_built_envelope_has_no_octets_to_verify(self):
        signed = build_request_envelope(NS, "echo", {})
        built = build_request_envelope(NS, "echo", {})
        built.add_header(attach_security_header(signed, CREDS, now=NOW))
        with pytest.raises(SecurityError, match="no octets"):
            verify_security_header(built, secrets_db, now=NOW)

    def test_stale_timestamp_raises(self):
        env = signed_envelope(now=NOW - timedelta(hours=1))
        with pytest.raises(SecurityError, match="stale"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_future_timestamp_raises(self):
        env = signed_envelope(now=NOW + timedelta(hours=1))
        with pytest.raises(SecurityError, match="stale"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_freshness_window_configurable(self):
        env = signed_envelope(now=NOW - timedelta(minutes=10))
        assert verify_security_header(
            env, secrets_db, now=NOW, freshness=timedelta(minutes=30)
        ) == "alice"

    def test_incomplete_token_raises(self):
        env = signed_envelope()
        token = env.find_header(SECURITY_TAG).find("UsernameToken")
        token.children = [c for c in token.children if getattr(c, "local_name", "") != "Nonce"]
        with pytest.raises(SecurityError, match="incomplete"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_bad_base64_raises(self):
        env = signed_envelope()
        token = env.find_header(SECURITY_TAG).find("UsernameToken")
        token.find("Nonce").children[:] = ["@@@"]
        with pytest.raises(SecurityError, match="base64"):
            verify_security_header(env, secrets_db, now=NOW)

    def test_bad_created_raises(self):
        env = signed_envelope()
        token = env.find_header(SECURITY_TAG).find("UsernameToken")
        token.find("Created").children[:] = ["not a date"]
        with pytest.raises(SecurityError, match="unparseable|digest"):
            verify_security_header(env, secrets_db, now=NOW)


class TestSignedOctets:
    """What is signed is the Body's text as written, and what is verified
    is the Body's text as read."""

    def test_the_signed_octets_are_sent_verbatim(self):
        """Even where the header moves the writer's generated prefixes."""
        env = build_request_envelope(NS, "echo", {"payload": "a&b<c>", "n": 7})
        env.add_header(Element("{urn:unprefixed}hint"))  # written as ns0:hint
        body = env.seal_body()
        assert body.startswith(b"<SOAP-ENV:Body>") and body.endswith(b"</SOAP-ENV:Body>")
        wire = env.to_bytes()
        assert wire.count(body) == 1 and wire.endswith(body + b"</SOAP-ENV:Envelope>")

    def test_signing_parses_no_encoded_entry(self):
        env = build_request_envelope(NS, "echo", {"payload": [1, {"k": "v"}]})
        attach_security_header(env, CREDS, now=NOW)
        assert env.first_body_entry().parts is not None

    def test_entries_changed_after_signing_are_not_sent(self):
        env = build_request_envelope(NS, "echo", {"payload": "signed"})
        attach_security_header(env, CREDS, now=NOW)
        env.add_body(build_request_envelope(NS, "echo", {"payload": "added"}).first_body_entry())
        wire = env.to_bytes()
        assert b"added" not in wire
        assert verify_security_header(Envelope.parse(wire, server=True), secrets_db, now=NOW)

    def test_the_reader_records_the_body_span(self):
        document = (
            '<?xml version="1.0"?>\n<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/">'
            '<e:Header/>\n <e:Body >\r\n<op xmlns="urn:x"/> </e:Body >\n</e:Envelope>'
        )
        env = Envelope.parse(document.encode("utf-8"), server=True)
        assert env.source[env.body_start : env.body_end] == (
            '<e:Body >\r\n<op xmlns="urn:x"/> </e:Body >'
        )


class TestOverheadProbe:
    def test_header_adds_hundreds_of_bytes(self):
        overhead = security_header_overhead(CREDS)
        # UsernameToken + nonce + digest + namespaces: a few hundred bytes,
        # which is exactly why the paper says packing pays off more with WSS.
        assert 300 <= overhead <= 1200

    def test_signed_message_larger_than_unsigned(self):
        plain = build_request_envelope(NS, "echo", {"p": "x"}).to_bytes()
        env = build_request_envelope(NS, "echo", {"p": "x"})
        attach_security_header(env, CREDS, now=NOW)
        assert len(env.to_bytes()) > len(plain) + 200

    def test_certificate_profile_is_kilobytes(self):
        """The X.509 profile header matches real WSS deployments (3-6 KB)."""
        overhead = security_header_overhead(CREDS, include_certificate=True)
        assert 2500 <= overhead <= 6000


class TestCertificateProfile:
    def test_header_contains_token_and_signature(self):
        env = build_request_envelope(NS, "echo", {"p": "x"})
        header = attach_security_header(
            env, CREDS, now=NOW, include_certificate=True
        )
        locals_present = {c.local_name for c in header.element_children()}
        assert "BinarySecurityToken" in locals_present
        assert "Signature" in locals_present

    def test_certificate_deterministic_per_user(self):
        def header_for(username):
            env = build_request_envelope(NS, "echo", {"p": "x"})
            header = attach_security_header(
                env, Credentials(username, b"s"), now=NOW, include_certificate=True
            )
            return header.find("BinarySecurityToken").text

        assert header_for("alice") == header_for("alice")
        assert header_for("alice") != header_for("bob")

    def test_certificate_header_still_verifies(self):
        env = build_request_envelope(NS, "echo", {"p": "x"})
        attach_security_header(env, CREDS, now=NOW, include_certificate=True)
        wire = Envelope.parse(env.to_bytes(), server=True)
        assert verify_security_header(wire, secrets_db, now=NOW) == "alice"

    def test_signature_survives_wire(self):
        from repro.soap.wssecurity import SECURITY_TAG

        env = build_request_envelope(NS, "echo", {"p": "x"})
        attach_security_header(env, CREDS, now=NOW, include_certificate=True)
        wire = Envelope.parse(env.to_bytes(), server=True)
        security = wire.find_header(SECURITY_TAG)
        signature = security.find("Signature")
        assert signature is not None
        assert signature.find("SignatureValue").text
