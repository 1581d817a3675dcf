"""Deadline-rebased I/O timeouts, end to end.

Determinism comes from controlling the *wire*, not from sleeping and
hoping: a listener nobody accepts on hangs every attempt, and a
recording transport shows the ``<res:Deadline>`` header each attempt
carried.
"""

import re
import time

import pytest

from repro.apps.echo import ECHO_NS, ECHO_SERVICE
from repro.client.config import ClientConfig, build_proxy
from repro.errors import TransportError
from repro.resilience.deadline import wire_timeout
from repro.resilience.policy import CallPolicy
from repro.transport.inproc import InProcTransport
from ..transport.recording import RecordingTransport


def make_proxy(transport, address):
    return build_proxy(ClientConfig(
        transport, address, namespace=ECHO_NS, service_name=ECHO_SERVICE
    ))


def remaining_ms(sent):
    """The ``<res:Deadline remainingMs>`` each sent request carried."""
    return [int(re.search(rb'remainingMs="(\d+)"', data).group(1)) for data in sent]


class TestDeadlineRebasedIo:
    def test_wire_timeout_carries_grace_over_the_budget(self):
        assert wire_timeout(None) is None
        assert wire_timeout(0.1) == pytest.approx(0.15)  # floor-dominated
        assert wire_timeout(10.0) == pytest.approx(12.5)  # fraction-dominated

    def test_hung_server_cannot_eat_the_whole_deadline(self):
        # a listener nobody accepts on: connects succeed, recv hangs
        base = InProcTransport()
        listener = base.listen("hung-server")
        try:
            wire = RecordingTransport(base)
            proxy = make_proxy(wire, "hung-server")
            policy = CallPolicy(
                timeout=0.2, deadline=0.4, retries=5,
                backoff_base=0.0, jitter=0.0,
            )
            started = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                proxy.call_with_policy("echo", policy, payload="x")
            elapsed = time.perf_counter() - started
            # attempt 1 gets min(0.2, 0.4) + grace; later attempts only
            # what the whole-call deadline has left — never 6 x 0.2
            assert 0.2 <= elapsed < 1.0
            assert proxy.connections_opened >= 2  # it did rebase and retry
            # every attempt re-based its <res:Deadline> header on what the
            # whole-call deadline had left when it was sent
            sent = remaining_ms(wire.sent)
            assert sent[0] == 200 and sent[1] < sent[0]
            assert sent == sorted(sent, reverse=True)
            proxy.close()
        finally:
            listener.close()
