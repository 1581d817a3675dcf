"""Tests for the echo and weather demo services."""

import pytest

from repro.apps.echo import ECHO_NS, make_echo_payload, make_echo_service
from repro.apps.weather import (
    WEATHER_NS,
    figure4_document,
    figure4_envelope,
    make_weather_service,
)
from repro.client.proxy import ServiceProxy
from repro.core.dispatcher import spi_server_handlers
from repro.core.packformat import unpack_parallel_method
from repro.errors import SoapFaultError
from repro.server.handlers import HandlerChain
from repro.soap.envelope import Envelope
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy


class TestEchoPayload:
    @pytest.mark.parametrize("size", [0, 1, 10, 1000, 100_000])
    def test_exact_size(self, size):
        assert len(make_echo_payload(size)) == size

    def test_deterministic(self):
        assert make_echo_payload(100) == make_echo_payload(100)

    def test_negative_is_empty(self):
        assert make_echo_payload(-5) == ""


class TestEchoService:
    @pytest.fixture
    def service(self):
        return make_echo_service()

    def test_echo_returns_input(self, service):
        payload = make_echo_payload(1000)
        assert service.invoke("echo", {"payload": payload}) == payload

    def test_echo_length(self, service):
        assert service.invoke("echoLength", {"payload": "abcd"}) == 4

    def test_delayed_echo(self, service):
        assert service.invoke("delayedEcho", {"payload": "x", "delay_ms": 1}) == "x"

    def test_namespace(self, service):
        assert service.namespace == ECHO_NS


class TestWeatherService:
    @pytest.fixture
    def service(self):
        return make_weather_service()

    def test_beijing(self, service):
        report = service.invoke(
            "GetWeather", {"city": "Beijing", "country": "China"}
        )
        assert report.startswith("Beijing, China:")

    def test_unknown_city_faults(self, service):
        from repro.soap.fault import ClientFaultCause

        with pytest.raises(ClientFaultCause):
            service.invoke("GetWeather", {"city": "Atlantis", "country": "Nowhere"})

    def test_cities_by_country(self, service):
        cities = service.invoke("GetCitiesByCountry", {"country": "China"})
        assert cities == ["Beijing", "Guangzhou", "Shanghai"]


class TestFigure4:
    def test_figure4_shape_matches_paper(self):
        """'The SOAP body contains Parallel_Method element.  This element
        has two child elements that are packed into two service requests
        respectively.'"""
        envelope = figure4_envelope()
        wrapper = envelope.first_body_entry()
        entries = unpack_parallel_method(wrapper)
        assert len(entries) == 2
        assert entries[0].require("city").text == "Beijing"
        assert entries[1].require("city").text == "Shanghai"

    def test_figure4_document_is_valid_soap(self):
        document = figure4_document()
        assert "Parallel_Method" in document
        reparsed = Envelope.parse(document, server=True)
        assert len(unpack_parallel_method(reparsed.first_body_entry())) == 2

    def test_figure4_executes_against_weather_server(self):
        transport = InProcTransport()
        server = build_server(ServerConfig(services=[make_weather_service()], architecture="staged", transport=transport, address="weather", chain=HandlerChain(spi_server_handlers())))
        with server.running() as address:
            proxy = build_proxy(ClientConfig(
                transport, address, namespace=WEATHER_NS, service_name="GlobalWeather"
            ))
            response = Envelope.parse(proxy.exchange(figure4_envelope()), server=True)
        results = unpack_parallel_method(response.first_body_entry())
        texts = [r.require("return").text for r in results]
        assert "Beijing" in texts[0]
        assert "Shanghai" in texts[1]


class TestWeatherOverHttp:
    def test_end_to_end_call(self):
        transport = InProcTransport()
        server = build_server(ServerConfig(services=[make_weather_service()], architecture="staged", transport=transport, address="weather-http"))
        with server.running() as address:
            proxy = build_proxy(ClientConfig(
                transport, address, namespace=WEATHER_NS, service_name="GlobalWeather"
            ))
            report = proxy.call("GetWeather", city="Honolulu", country="USA")
            assert "Honolulu" in report
            with pytest.raises(SoapFaultError):
                proxy.call("GetWeather", city="Nowhere", country="X")
