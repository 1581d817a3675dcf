"""Unit tests for the service container and the SOAP endpoint."""

import pytest

from repro.errors import ServiceError
from repro.http.message import Headers, HttpRequest
from repro.soap.constants import FAULT_TAG, REQUEST_ID_ATTR, SOAP_CONTENT_TYPE
from repro.soap.deserializer import parse_rpc_response
from repro.soap.envelope import Envelope
from repro.soap.serializer import build_request_envelope, serialize_rpc_request
from repro.server.container import ServiceContainer
from repro.server.endpoint import SoapEndpoint
from repro.server.service import service_from_functions
from repro.xmlcore.tree import Element

from ..metrics import counters, sketches

NS = "urn:svc:calc"


@pytest.fixture
def container():
    def fail(message: str):
        raise RuntimeError(message)

    svc = service_from_functions(
        "Calc",
        NS,
        {
            "add": lambda a, b: a + b,
            "fail": fail,
        },
    )
    return ServiceContainer([svc])


class TestContainer:
    def test_deploy_and_lookup(self, container):
        assert container.service_for(NS).name == "Calc"

    def test_duplicate_namespace_raises(self, container):
        with pytest.raises(ServiceError, match="already deployed"):
            container.deploy(service_from_functions("Other", NS, {"x": lambda: 1}))

    def test_unknown_namespace_raises(self, container):
        with pytest.raises(ServiceError, match="no service"):
            container.service_for("urn:none")

    def test_execute_entry_success(self, container):
        entry = serialize_rpc_request(NS, "add", {"a": 2, "b": 5})
        response = container.execute_entry(entry)
        assert parse_rpc_response(response).value == 7

    def test_execute_entry_service_error_becomes_fault(self, container):
        entry = serialize_rpc_request(NS, "fail", {"message": "boom"})
        response = container.execute_entry(entry)
        assert response.tag == FAULT_TAG
        assert counters(container)["container.faults"] == 1

    def test_execute_entry_unknown_op_becomes_client_fault(self, container):
        entry = serialize_rpc_request(NS, "nope", {})
        response = container.execute_entry(entry)
        assert response.tag == FAULT_TAG
        assert "SOAP-ENV:Client" in response.findtext("faultcode", "")

    def test_request_id_copied_to_response(self, container):
        entry = serialize_rpc_request(NS, "add", {"a": 1, "b": 1})
        entry.set(REQUEST_ID_ATTR, "req-3")
        assert container.execute_entry(entry).get(REQUEST_ID_ATTR) == "req-3"

    def test_request_id_copied_to_fault(self, container):
        entry = serialize_rpc_request(NS, "nope", {})
        entry.set(REQUEST_ID_ATTR, "req-9")
        assert container.execute_entry(entry).get(REQUEST_ID_ATTR) == "req-9"

    def test_stats(self, container):
        # faults count on the fault path only
        container.execute_entry(serialize_rpc_request(NS, "add", {"a": 1, "b": 2}))
        assert counters(container)["container.faults"] == 0


def soap_post(endpoint: SoapEndpoint, envelope: Envelope) -> "HttpResponse":
    request = HttpRequest(
        "POST",
        "/services/Calc",
        Headers({"Content-Type": SOAP_CONTENT_TYPE}),
        envelope.to_bytes(),
    )
    return endpoint(request)


class TestEndpoint:
    @pytest.fixture
    def endpoint(self, container):
        return SoapEndpoint(
            container, lambda entries, context: [container.execute_entry(e) for e in entries]
        )

    def test_successful_call(self, endpoint):
        response = soap_post(endpoint, build_request_envelope(NS, "add", {"a": 3, "b": 4}))
        assert response.status == 200
        env = Envelope.parse(response.body, server=True)
        assert parse_rpc_response(env.first_body_entry()).value == 7

    def test_service_fault_is_http_500(self, endpoint):
        response = soap_post(
            endpoint, build_request_envelope(NS, "fail", {"message": "x"})
        )
        assert response.status == 500
        assert b"Fault" in response.body

    def test_unparseable_body_is_http_400(self, endpoint):
        request = HttpRequest("POST", "/", body=b"this is not xml")
        response = endpoint(request)
        assert response.status == 400
        assert b"Fault" in response.body

    def test_unsupported_method_is_405(self, endpoint):
        assert endpoint(HttpRequest("DELETE", "/")).status == 405

    def test_must_understand_unprocessed_faults(self, endpoint):
        envelope = build_request_envelope(NS, "add", {"a": 1, "b": 2})
        envelope.add_header(Element("{urn:sec}Auth"), must_understand=True)
        response = soap_post(endpoint, envelope)
        assert response.status == 500
        assert b"MustUnderstand" in response.body

    def test_plain_header_ignored(self, endpoint):
        envelope = build_request_envelope(NS, "add", {"a": 1, "b": 2})
        envelope.add_header(Element("{urn:x}Trace"))
        assert soap_post(endpoint, envelope).status == 200

    def test_wsdl_get(self, endpoint):
        response = endpoint(HttpRequest("GET", "/services/Calc?wsdl"))
        assert response.status == 200
        assert b"definitions" in response.body
        assert b"add" in response.body

    def test_wsdl_unknown_service_404(self, endpoint):
        assert endpoint(HttpRequest("GET", "/services/Nope?wsdl")).status == 404

    def test_get_without_wsdl_404(self, endpoint):
        assert endpoint(HttpRequest("GET", "/services/Calc")).status == 404

    def test_stats_counted(self, endpoint, container):
        soap_post(endpoint, build_request_envelope(NS, "add", {"a": 1, "b": 1}))
        endpoint(HttpRequest("GET", "/services/Calc?wsdl"))
        endpoint(HttpRequest("POST", "/", body=b"this is not xml"))
        counts = counters(container)
        assert counts["soap.messages"] == 1
        assert counts["soap.wsdl_requests"] == 1
        assert counts["soap.faults"] == 1
        assert counts["soap.packed_messages"] == 0
        assert sketches(container)["soap.pack_degree"]["count"] == 1


class TestServicesIndex:
    @pytest.fixture
    def endpoint(self, container):
        return SoapEndpoint(
            container, lambda entries, context: [container.execute_entry(e) for e in entries]
        )

    def test_index_lists_services_and_operations(self, endpoint):
        response = endpoint(HttpRequest("GET", "/services"))
        assert response.status == 200
        text = response.body.decode()
        assert "Calc" in text
        assert "add" in text
        assert "?wsdl" in text

    def test_root_path_also_serves_index(self, endpoint):
        assert endpoint(HttpRequest("GET", "/")).status == 200

    def test_trailing_slash(self, endpoint):
        assert endpoint(HttpRequest("GET", "/services/")).status == 200

    def test_other_paths_still_404(self, endpoint):
        assert endpoint(HttpRequest("GET", "/other")).status == 404
