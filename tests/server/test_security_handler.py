"""End-to-end WS-Security enforcement: signed clients vs the verify handler."""

import pytest

from repro.apps.echo import ECHO_NS, make_echo_service
from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError
from repro.server.handlers import HandlerChain
from repro.server.security_handler import SecurityVerifyHandler
from repro.soap.envelope import Envelope
from repro.soap.wssecurity import Credentials
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

SECRETS = {"alice": b"alice-secret", "bob": b"bob-secret"}
ALICE = Credentials("alice", SECRETS["alice"])
MALLORY = Credentials("mallory", b"guess")
WRONG_ALICE = Credentials("alice", b"wrong-secret")


@pytest.fixture(params=[True, False], ids=["required", "optional"])
def secured_env(request):
    required = request.param
    transport = InProcTransport()
    verify = SecurityVerifyHandler(SECRETS.get, required=required)
    server = build_server(ServerConfig(services=[make_echo_service()], architecture="staged", transport=transport, address="secured", chain=HandlerChain([verify, *spi_server_handlers()])))
    with server.running() as address:
        yield transport, address, verify, required


def proxy_for(transport, address, credentials=None):
    return build_proxy(ClientConfig(
        transport, address, namespace=ECHO_NS, service_name="EchoService",
        credentials=credentials,
    ))


class TestSecurityEnforcement:
    def test_signed_call_accepted(self, secured_env):
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        assert proxy.call("echo", payload="authenticated") == "authenticated"
        assert verify.snapshot()["verified"] == 1

    def test_unsigned_call(self, secured_env):
        transport, address, verify, required = secured_env
        proxy = proxy_for(transport, address)
        if required:
            with pytest.raises(SoapFaultError):
                proxy.call("echo", payload="anon")
        else:
            assert proxy.call("echo", payload="anon") == "anon"
            assert verify.snapshot()["anonymous"] == 1

    def test_unknown_user_rejected(self, secured_env):
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, MALLORY)
        with pytest.raises(SoapFaultError):
            proxy.call("echo", payload="x")
        assert verify.snapshot()["rejected"] == 1

    def test_wrong_secret_rejected(self, secured_env):
        transport, address, _, _ = secured_env
        proxy = proxy_for(transport, address, WRONG_ALICE)
        with pytest.raises(SoapFaultError):
            proxy.call("echo", payload="x")

    def test_signed_packed_batch_accepted(self, secured_env):
        """One signature authenticates the entire packed batch — the
        amortization §4.2 argues for."""
        transport, address, verify, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        with PackBatch(proxy) as batch:
            futures = [batch.call("echo", payload=f"m{i}") for i in range(5)]
        assert [f.result(timeout=10) for f in futures] == [f"m{i}" for i in range(5)]
        assert verify.snapshot()["verified"] == 1

    def test_unsigned_packed_batch_rejected_whole(self, secured_env):
        transport, address, _, required = secured_env
        if not required:
            pytest.skip("optional mode admits anonymous batches")
        proxy = proxy_for(transport, address)
        batch = PackBatch(proxy)
        futures = [batch.call("echo", payload=str(i)) for i in range(3)]
        batch.flush()
        for future in futures:
            assert isinstance(future.exception(timeout=10), SoapFaultError)

    def test_tampered_packed_body_rejected(self, secured_env):
        """Signature covers the body, so post-signing tampering fails."""
        transport, address, _, _ = secured_env
        from repro.core.assembler import ClientAssembler
        from repro.soap.wssecurity import attach_security_header

        assembler = ClientAssembler(ECHO_NS)
        assembler.add_call("echo", {"payload": "original"})
        envelope = assembler.assemble()
        attach_security_header(envelope, ALICE)
        # tamper after signing
        wrapper = envelope.first_body_entry()
        wrapper.element_children()[0].element_children()[0].children[:] = ["tampered"]
        proxy = proxy_for(transport, address)
        response = Envelope.parse(proxy.exchange(envelope), server=True)
        assert response.first_body_entry().local_name == "Fault"

    def test_must_understand_satisfied_by_verifier(self, secured_env):
        """The signed header is mustUnderstand; the verify handler marks
        it understood so the endpoint does not fault."""
        transport, address, _, _ = secured_env
        proxy = proxy_for(transport, address, ALICE)
        assert proxy.call("echo", payload="ok") == "ok"
