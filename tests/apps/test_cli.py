"""Tests for the serve/call CLIs (driven in-process, real TCP)."""

import pytest

from repro.apps.call import main as call_main, parse_call, parse_value, split_calls
from repro.apps.serve import build_demo_server
from repro.errors import ReproError
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters


class TestValueParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("42", 42),
            ("-3", -3),
            ("1.5", 1.5),
            ("true", True),
            ("false", False),
            ("hello", "hello"),
            ("str:42", "42"),
            ("str:true", "true"),
        ],
    )
    def test_parse_value(self, text, expected):
        assert parse_value(text) == expected

    def test_parse_call(self):
        op, params = parse_call(["echo", "payload=hi", "n=3"])
        assert op == "echo"
        assert params == {"payload": "hi", "n": 3}

    def test_parse_call_bad_pair_raises(self):
        with pytest.raises(ReproError):
            parse_call(["echo", "notapair"])

    def test_parse_call_empty_raises(self):
        with pytest.raises(ReproError):
            parse_call([])

    def test_split_calls(self):
        assert split_calls(["a", "x=1", "--", "b", "y=2"]) == [
            ["a", "x=1"],
            ["b", "y=2"],
        ]

    def test_split_calls_trailing_separator(self):
        assert split_calls(["a", "--"]) == [["a"]]


@pytest.fixture(scope="module")
def demo_server():
    server = build_demo_server("127.0.0.1", 0)
    address = server.start()
    yield f"{address[0]}:{address[1]}", server
    server.stop()


class TestServeAndCall:
    def test_all_demo_services_deployed(self, demo_server):
        _, server = demo_server
        names = {s.name for s in server.container.services()}
        assert "EchoService" in names
        assert "GlobalWeather" in names
        assert "CreditCard" in names
        assert "SpiPlanRunner" in names
        assert len(names) >= 10

    def test_single_call(self, demo_server, capsys):
        address, _ = demo_server
        rc = call_main([address, "urn:repro:echo", "echo", "payload=cli-test"])
        assert rc == 0
        assert "'cli-test'" in capsys.readouterr().out

    def test_typed_parameters(self, demo_server, capsys):
        address, _ = demo_server
        rc = call_main([address, "urn:repro:echo", "delayedEcho", "payload=x", "delay_ms=1"])
        assert rc == 0
        assert "'x'" in capsys.readouterr().out

    def test_packed_calls(self, demo_server, capsys):
        address, server = demo_server
        before = counters(server)["soap.packed_messages"]
        rc = call_main(
            [
                address,
                "urn:repro:weather",
                "--pack",
                "GetWeather", "city=Beijing", "country=China",
                "--",
                "GetWeather", "city=Shanghai", "country=China",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Beijing" in out
        assert "Shanghai" in out
        assert counters(server)["soap.packed_messages"] == before + 1

    def test_fault_reported_to_stderr(self, demo_server, capsys):
        address, _ = demo_server
        rc = call_main([address, "urn:repro:echo", "--pack", "noSuchOp", "a=1"])
        assert rc == 0  # per-entry faults are reported, not fatal
        assert "FAULT" in capsys.readouterr().err

    def test_unpacked_fault_is_fatal(self, demo_server, capsys):
        address, _ = demo_server
        rc = call_main([address, "urn:repro:echo", "noSuchOp", "a=1"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_wsdl_served_over_real_http(self, demo_server):
        address, _ = demo_server
        from repro.client.proxy import ServiceProxy
        from repro.transport.tcp import TcpTransport

        host, _, port = address.partition(":")
        proxy = build_proxy(ClientConfig(
            TcpTransport(), (host, int(port)),
            namespace="urn:repro:weather", service_name="GlobalWeather",
        ))
        document = proxy.fetch_wsdl()
        assert "GetWeather" in document
