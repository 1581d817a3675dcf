"""The ClientConfig facade."""

import pytest

from repro.client.config import ClientConfig, build_proxy
from repro.client.proxy import ServiceProxy
from repro.errors import InvocationError
from repro.resilience.policy import CallPolicy
from repro.transport.inproc import InProcTransport


class TestClientConfig:
    def test_transport_and_namespace_required(self):
        with pytest.raises(InvocationError, match="transport"):
            ClientConfig(namespace="urn:x")
        with pytest.raises(InvocationError, match="address"):
            ClientConfig(InProcTransport(), namespace="urn:x")
        with pytest.raises(InvocationError, match="namespace"):
            ClientConfig(InProcTransport(), "addr")

    def test_replace_is_a_frozen_copy(self):
        base = ClientConfig(InProcTransport(), "addr", namespace="urn:x")
        pooled = base.replace(reuse_connections=True)
        assert not base.reuse_connections and pooled.reuse_connections
        assert pooled.namespace == "urn:x"

    def test_build_proxy_wires_every_knob(self):
        policy = CallPolicy(retries=2)
        config = ClientConfig(
            InProcTransport(),
            "addr",
            namespace="urn:x",
            service_name="Echo",
            policy=policy,
        )
        proxy = build_proxy(config)
        assert isinstance(proxy, ServiceProxy)
        assert proxy.config is config
        assert proxy.namespace == "urn:x"
        assert proxy.service_name == "Echo"
        assert proxy.policy is policy
