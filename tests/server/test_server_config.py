"""The unified ServerConfig API: facade and validation."""

import pytest

from repro.apps.echo import make_echo_service
from repro.errors import TransportError
from repro.http.evented import EventedHttpServer
from repro.http.server import HttpServer
from repro.server import ServerConfig, build_server
from repro.obs import Observability
from repro.server import SoapServer
from repro.transport.inproc import InProcTransport

from ..metrics import counters


class TestServerConfig:
    def test_defaults(self):
        config = ServerConfig()
        assert config.architecture == "staged"
        assert config.backend == "threaded"
        assert config.protocol_queue_limit == 1024

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError, match="architecture"):
            ServerConfig(architecture="actor-model")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ServerConfig(backend="asyncio")

    def test_replace_returns_modified_copy(self):
        config = ServerConfig()
        evented = config.replace(backend="evented")
        assert config.backend == "threaded"
        assert evented.backend == "evented"

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ServerConfig().backend = "evented"


class TestBuildServer:
    def test_architecture_selects_scheduling_policy(self):
        # one server class; Fig. 2 builds an application stage, Fig. 1
        # builds none
        services = [make_echo_service()]
        staged = build_server(ServerConfig(services=services, app_workers=3))
        common = build_server(
            ServerConfig(services=services, architecture="common")
        )
        try:
            assert type(staged) is type(common) is SoapServer
            assert staged.architecture == "staged"
            assert staged.app_stage.workers == 3
            assert common.architecture == "common"
            assert common.app_stage is None
            assert not any(name.startswith("stage.") for name in counters(common))
        finally:
            staged.stop()

    @pytest.mark.parametrize("observability", [None, Observability()])
    def test_every_layer_counts_into_the_one_server_registry(self, observability):
        server = build_server(ServerConfig(
            services=[make_echo_service()], observability=observability
        ))
        layers = (server.http, server.container, server.app_stage)
        assert all(layer.registry is server.registry for layer in layers)
        if observability is not None:
            assert server.registry is observability.registry

    def test_backend_selects_http_class(self):
        services = [make_echo_service()]
        threaded = build_server(ServerConfig(services=services))
        evented = build_server(
            ServerConfig(services=services, backend="evented")
        )
        assert isinstance(threaded.http, HttpServer)
        assert isinstance(evented.http, EventedHttpServer)

    def test_server_carries_its_config(self):
        # a missing transport is normalized to TcpTransport; everything
        # else comes through unchanged on server.config
        config = ServerConfig(services=[make_echo_service()], app_workers=7)
        server = build_server(config)
        assert server.config.app_workers == 7
        assert server.config.transport is not None

    def test_evented_on_inproc_fails_at_start(self):
        # InProc transport has no selectable socket; the evented loop
        # must refuse loudly, not hang.
        server = build_server(ServerConfig(
            services=[make_echo_service()],
            backend="evented",
            transport=InProcTransport(),
            address="nope",
        ))
        with pytest.raises(TransportError, match="selectable"):
            server.start()

    def test_both_backends_serve_the_full_matrix(self):
        # (architecture x backend) all build; socket backends all start.
        from repro.transport.tcp import TcpTransport

        for architecture in ("common", "staged"):
            for backend in ("threaded", "evented"):
                server = build_server(ServerConfig(
                    services=[make_echo_service()],
                    architecture=architecture,
                    backend=backend,
                    transport=TcpTransport(),
                    protocol_workers=3,
                ))
                with server.running() as address:
                    assert address[1] > 0
                    if backend == "evented":
                        assert server.http._stage.workers == 3
