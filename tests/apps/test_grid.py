"""Tests for the grid job-manager app."""

import time

import pytest

from repro.apps.grid import (
    CANCELLED,
    DONE,
    GRID_NS,
    GRID_SERVICE,
    QUEUED,
    GridMonitor,
    JobStore,
    expected_digest,
    make_grid_service,
)
from repro.client.proxy import ServiceProxy
from repro.core.dispatcher import spi_server_handlers
from repro.errors import SoapFaultError
from repro.server.handlers import HandlerChain
from repro.soap.fault import ClientFaultCause
from repro.transport.inproc import InProcTransport
from repro.server import ServerConfig, build_server
from repro.client.config import ClientConfig, build_proxy

from ..metrics import counters


def wait_done(store, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = store.status(job_id)
        if status["state"] in (DONE, CANCELLED):
            return status
        time.sleep(0.005)
    raise TimeoutError(job_id)


class TestJobStore:
    @pytest.fixture
    def store(self):
        store = JobStore(workers=2, work_units=10)
        yield store
        store.shutdown()

    def test_submit_and_complete(self, store):
        job_id = store.submit("compute alpha", 5)
        assert job_id.startswith("job-")
        status = wait_done(store, job_id)
        assert status["state"] == DONE
        assert status["progress"] == 100

    def test_result_digest_deterministic(self, store):
        job_id = store.submit("compute alpha", 5)
        wait_done(store, job_id)
        result = store.result(job_id)
        assert result["digest"] == expected_digest("compute alpha", 10)

    def test_result_before_done_faults(self, store):
        slow_store = JobStore(workers=1, work_units=100_000)
        try:
            blocker = slow_store.submit("blocker", 1)
            with pytest.raises(ClientFaultCause, match="not available"):
                slow_store.result(blocker)
            slow_store.cancel(blocker)
        finally:
            slow_store.shutdown()

    def test_cancel_queued_job(self):
        store = JobStore(workers=1, work_units=200_000)
        try:
            blocker = store.submit("blocker", 1)
            queued = store.submit("queued", 1)
            assert store.cancel(queued) is True
            assert store.status(queued)["state"] == CANCELLED
            store.cancel(blocker)
        finally:
            store.shutdown()

    def test_cancel_done_job_returns_false(self, store):
        job_id = store.submit("quick", 1)
        wait_done(store, job_id)
        assert store.cancel(job_id) is False

    def test_unknown_job_faults(self, store):
        with pytest.raises(ClientFaultCause, match="unknown job"):
            store.status("job-999")

    def test_validation(self, store):
        with pytest.raises(ClientFaultCause):
            store.submit("", 5)
        with pytest.raises(ClientFaultCause):
            store.submit("x", 11)
        with pytest.raises(ClientFaultCause):
            store.list_ids("EXPLODED")

    def test_list_by_state(self, store):
        ids = [store.submit(f"c{i}", 1) for i in range(3)]
        for job_id in ids:
            wait_done(store, job_id)
        assert store.list_ids(DONE) == sorted(ids)
        assert store.list_ids(QUEUED) == []


@pytest.fixture(scope="module")
def grid_env():
    transport = InProcTransport()
    service = make_grid_service(workers=4, work_units=10)
    server = build_server(ServerConfig(services=[service], architecture="staged", transport=transport, address="grid", chain=HandlerChain(spi_server_handlers())))
    with server.running() as address:
        yield transport, address, server, service
    service.job_store.shutdown()


class TestGridOverSoap:
    def test_full_lifecycle(self, grid_env):
        transport, address, _, _ = grid_env
        proxy = build_proxy(ClientConfig(transport, address, namespace=GRID_NS, service_name=GRID_SERVICE))
        job_id = proxy.call("submitJob", command="lifecycle", priority=3)
        deadline = time.monotonic() + 10
        while proxy.call("queryStatus", jobId=job_id)["state"] != DONE:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        result = proxy.call("fetchResult", jobId=job_id)
        assert result["digest"] == expected_digest("lifecycle", 10)
        proxy.close()

    def test_fault_over_wire(self, grid_env):
        transport, address, _, _ = grid_env
        proxy = build_proxy(ClientConfig(transport, address, namespace=GRID_NS, service_name=GRID_SERVICE))
        with pytest.raises(SoapFaultError, match="unknown job"):
            proxy.call("queryStatus", jobId="job-404")
        proxy.close()


class TestGridMonitor:
    @pytest.mark.parametrize("use_packing", [True, False])
    def test_submit_poll_fetch(self, grid_env, use_packing):
        transport, address, _, _ = grid_env
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=GRID_NS, service_name=GRID_SERVICE,
            reuse_connections=True,
        ))
        monitor = GridMonitor(proxy, use_packing=use_packing)
        commands = [f"task-{use_packing}-{i}" for i in range(6)]
        job_ids = monitor.submit_batch(commands)
        assert len(set(job_ids)) == 6
        statuses, _ = monitor.wait_all_done(job_ids, timeout=20)
        assert all(s["state"] == DONE for s in statuses)
        results = monitor.fetch_results(job_ids)
        for command, result in zip(commands, results):
            assert result["digest"] == expected_digest(command, 10)
        proxy.close()

    def test_packed_monitoring_message_economy(self, grid_env):
        """One poll sweep over N jobs = one SOAP message when packed,
        N messages serially — the grid-portal pattern SPI targets."""
        transport, address, server, _ = grid_env
        proxy = build_proxy(ClientConfig(
            transport, address, namespace=GRID_NS, service_name=GRID_SERVICE,
            reuse_connections=True,
        ))
        packed = GridMonitor(proxy, use_packing=True)
        job_ids = packed.submit_batch([f"mon-{i}" for i in range(8)])
        packed.wait_all_done(job_ids, timeout=20)

        before = counters(server)["soap.messages"]
        sample = packed.poll(job_ids)
        assert sample.soap_messages == 1
        assert counters(server)["soap.messages"] - before == 1

        serial = GridMonitor(proxy, use_packing=False)
        before = counters(server)["soap.messages"]
        sample = serial.poll(job_ids)
        assert sample.soap_messages == 8
        assert counters(server)["soap.messages"] - before == 8
        proxy.close()
