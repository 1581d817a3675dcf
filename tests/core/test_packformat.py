"""Unit tests for the Parallel_Method pack format (paper Fig. 4)."""

import pytest

from repro.core import packformat
from repro.errors import PackError
from repro.soap.constants import PARALLEL_METHOD, REQUEST_ID_ATTR, SPI_NS
from repro.soap.serializer import serialize_rpc_request
from repro.xmlcore import parse
from repro.xmlcore.writer import serialize

WEATHER_NS = "urn:svc:weather"


def weather_requests():
    return [
        serialize_rpc_request(WEATHER_NS, "GetWeather", {"city": "Beijing", "country": "China"}),
        serialize_rpc_request(WEATHER_NS, "GetWeather", {"city": "Shanghai", "country": "China"}),
    ]


class TestBuild:
    def test_figure4_shape(self):
        """Two GetWeather requests under one Parallel_Method — Fig. 4."""
        wrapper = packformat.build_parallel_method(weather_requests())
        assert wrapper.tag == PARALLEL_METHOD
        children = wrapper.element_children()
        assert len(children) == 2
        assert all(c.local_name == "GetWeather" for c in children)
        cities = [c.require("city").text for c in children]
        assert cities == ["Beijing", "Shanghai"]

    def test_sequential_ids_assigned(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        ids = [c.get(REQUEST_ID_ATTR) for c in wrapper.element_children()]
        assert ids == ["r0", "r1"]

    def test_no_id_assignment_when_disabled(self):
        entries = weather_requests()
        entries[0].set(REQUEST_ID_ATTR, "existing")
        entries[1].set(REQUEST_ID_ATTR, "kept")
        wrapper = packformat.build_parallel_method(entries, assign_ids=False)
        ids = [c.get(REQUEST_ID_ATTR) for c in wrapper.element_children()]
        assert ids == ["existing", "kept"]

    def test_empty_batch_raises(self):
        with pytest.raises(PackError, match="empty"):
            packformat.build_parallel_method([])

    def test_oversized_batch_raises(self):
        from repro.xmlcore.tree import Element

        entries = [Element("op") for _ in range(packformat.MAX_PACKED_REQUESTS + 1)]
        with pytest.raises(PackError, match="limit"):
            packformat.build_parallel_method(entries)

    def test_spi_namespace_on_wire(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        document = serialize(wrapper)
        assert SPI_NS in document
        assert "Parallel_Method" in document


class TestUnpack:
    def test_round_trip_through_wire(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        reparsed = parse(serialize(wrapper))
        entries = packformat.unpack_parallel_method(reparsed)
        assert [e.get(REQUEST_ID_ATTR) for e in entries] == ["r0", "r1"]
        assert entries[0].require("city").text == "Beijing"

    def test_is_parallel_method(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        assert packformat.is_parallel_method(wrapper)
        assert not packformat.is_parallel_method(weather_requests()[0])

    def test_wrong_element_raises(self):
        with pytest.raises(PackError, match="not a Parallel_Method"):
            packformat.unpack_parallel_method(weather_requests()[0])

    def test_empty_wrapper_raises(self):
        from repro.xmlcore.tree import Element

        with pytest.raises(PackError, match="no requests"):
            packformat.unpack_parallel_method(Element(PARALLEL_METHOD))

    def test_missing_request_id_raises(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        wrapper.element_children()[1].pop_attribute(REQUEST_ID_ATTR)
        with pytest.raises(PackError, match="no requestID"):
            packformat.unpack_parallel_method(wrapper)

    def test_duplicate_request_id_raises(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        wrapper.element_children()[1].set(REQUEST_ID_ATTR, "r0")
        with pytest.raises(PackError, match="duplicate"):
            packformat.unpack_parallel_method(wrapper)

    def test_stray_text_raises(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        wrapper.children.insert(1, "junk")
        with pytest.raises(PackError, match="stray"):
            packformat.unpack_parallel_method(wrapper)

    def test_whitespace_tolerated(self):
        wrapper = packformat.build_parallel_method(weather_requests())
        wrapper.children.insert(1, "\n  ")
        assert len(packformat.unpack_parallel_method(wrapper)) == 2


class TestCorrelate:
    def test_mapping(self):
        """The client's one pass over a packed response puts each child
        in its request's slot by requestID, whatever the child order."""
        from repro.core.assembler import ClientAssembler
        from repro.core.dispatcher import pack_results
        from repro.soap.envelope import Envelope
        from repro.soap.serializer import serialize_rpc_response

        assembler = ClientAssembler(WEATHER_NS)
        handles = [assembler.add_call("GetWeather", {"city": c}) for c in ("Beijing", "Shanghai")]
        responses = []
        for rid, value in (("r1", "rain"), ("r0", "sun")):
            response = serialize_rpc_response(WEATHER_NS, "GetWeather", value)
            response.set(REQUEST_ID_ATTR, rid)
            responses.append(response)
        envelope = Envelope()
        envelope.add_body(packformat.build_parallel_method(responses, assign_ids=False))
        reparsed = Envelope.parse(envelope.to_bytes(), server=True)
        assert pack_results(reparsed, handles) == ["sun", "rain"]
