"""Grid job-manager service — the paper's motivating domain.

The introduction frames SPI for grid middleware ("SOAP and other web
services protocols have been adopted to implement the basic
architecture for Grid Systems", citing GT4).  The canonical grid client
workload is *monitoring*: a portal polling the status of many jobs —
dozens of tiny requests to one container, which is precisely the
pattern the pack interface accelerates.

This module provides a deployable ``JobManager`` service with a real
background execution pool, plus a client-side :class:`GridMonitor`
that polls job batches packed or serially.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.client.proxy import ServiceProxy
from repro.core.batch import PackBatch
from repro.server.service import ServiceDefinition, service_from_functions
from repro.server.stage import Stage
from repro.soap.fault import ClientFaultCause

GRID_NS = "urn:repro:grid"
GRID_SERVICE = "JobManager"

QUEUED = "QUEUED"
RUNNING = "RUNNING"
DONE = "DONE"
CANCELLED = "CANCELLED"
STATES = (QUEUED, RUNNING, DONE, CANCELLED)


@dataclass(slots=True)
class _Job:
    job_id: str
    command: str
    priority: int
    state: str = QUEUED
    progress: int = 0  # percent
    result_digest: str = ""


class JobStore:
    """Thread-safe job table + deterministic simulated execution.

    A job's "work" is ``work_units`` rounds of SHA-256 over its command
    string — deterministic, CPU-shaped, and restartable-free, which is
    all the reproduction needs from a compute payload.
    """

    def __init__(self, *, workers: int = 4, work_units: int = 50) -> None:
        self._jobs: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._work_units = work_units
        # Bounded backlog: a grid that accepts unbounded jobs converts
        # overload into unbounded memory; past the bound submitters see
        # PoolSaturatedError -> Server.Busy like every other shed point.
        self._stage = Stage("grid-exec", workers, max_queue=256)

    def submit(self, command: str, priority: int) -> str:
        """Queue a job for execution; returns its id."""
        if not command:
            raise ClientFaultCause("job command must be non-empty")
        if not 0 <= priority <= 9:
            raise ClientFaultCause(f"priority {priority} outside 0..9")
        with self._lock:
            job = _Job(f"job-{next(self._counter)}", command, priority)
            self._jobs[job.job_id] = job
        self._stage.submit(self._run, job.job_id)
        return job.job_id

    def status(self, job_id: str) -> dict[str, Any]:
        """Status struct: jobId/state/progress/priority."""
        job = self._get(job_id)
        with self._lock:
            return {
                "jobId": job.job_id,
                "state": job.state,
                "progress": job.progress,
                "priority": job.priority,
            }

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; returns False when it already finished."""
        job = self._get(job_id)
        with self._lock:
            if job.state in (DONE, CANCELLED):
                return False
            job.state = CANCELLED
            return True

    def result(self, job_id: str) -> dict[str, Any]:
        """Result struct of a DONE job; Client fault otherwise."""
        job = self._get(job_id)
        with self._lock:
            if job.state != DONE:
                raise ClientFaultCause(
                    f"job '{job_id}' is {job.state}, result not available"
                )
            return {
                "jobId": job.job_id,
                "digest": job.result_digest,
                "command": job.command,
            }

    def list_ids(self, state: str) -> list[str]:
        """Sorted ids of jobs currently in ``state``."""
        if state not in STATES:
            raise ClientFaultCause(f"unknown state '{state}' (one of {STATES})")
        with self._lock:
            return sorted(j.job_id for j in self._jobs.values() if j.state == state)

    def shutdown(self) -> None:
        """Stop the execution stage (queued jobs are abandoned)."""
        self._stage.shutdown()

    # -- internals ------------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ClientFaultCause(f"unknown job '{job_id}'")
        return job

    def _run(self, job_id: str) -> None:
        job = self._get(job_id)
        with self._lock:
            if job.state != QUEUED:
                return
            job.state = RUNNING
        digest = job.command.encode("utf-8")
        for unit in range(self._work_units):
            with self._lock:
                if job.state == CANCELLED:
                    return
                job.progress = int(100 * (unit + 1) / self._work_units)
            digest = hashlib.sha256(digest).digest()
        with self._lock:
            if job.state == CANCELLED:
                return
            job.state = DONE
            job.progress = 100
            job.result_digest = digest.hex()


def expected_digest(command: str, work_units: int = 50) -> str:
    """The digest a completed job must report (used by tests/examples)."""
    digest = command.encode("utf-8")
    for _ in range(work_units):
        digest = hashlib.sha256(digest).digest()
    return digest.hex()


def make_grid_service(*, workers: int = 4, work_units: int = 50) -> ServiceDefinition:
    """Deployable JobManager service."""
    store = JobStore(workers=workers, work_units=work_units)

    def submitJob(command: str, priority: int) -> str:
        """Queue a job; returns its id."""
        return store.submit(command, priority)

    def queryStatus(jobId: str) -> dict:
        """Current state/progress of one job."""
        return store.status(jobId)

    def cancelJob(jobId: str) -> bool:
        """Cancel a queued/running job; False when already finished."""
        return store.cancel(jobId)

    def fetchResult(jobId: str) -> dict:
        """Result of a DONE job; faults otherwise."""
        return store.result(jobId)

    def listJobs(state: str) -> list:
        """Ids of jobs currently in ``state``."""
        return store.list_ids(state)

    service = service_from_functions(
        GRID_SERVICE,
        GRID_NS,
        {
            "submitJob": submitJob,
            "queryStatus": queryStatus,
            "cancelJob": cancelJob,
            "fetchResult": fetchResult,
            "listJobs": listJobs,
        },
    )
    service.job_store = store  # type: ignore[attr-defined]
    return service


@dataclass(slots=True)
class PollSample:
    statuses: list[dict[str, Any]]
    soap_messages: int


class GridMonitor:
    """Client-side monitoring portal for a batch of jobs."""

    def __init__(self, proxy: ServiceProxy, *, use_packing: bool = True) -> None:
        self.proxy = proxy
        self.use_packing = use_packing

    def submit_batch(self, commands: list[str], *, priority: int = 5) -> list[str]:
        """Submit many jobs; packed, this is one SOAP message."""
        if self.use_packing:
            batch = PackBatch(self.proxy)
            futures = [
                batch.call("submitJob", command=c, priority=priority) for c in commands
            ]
            batch.flush()
            return [f.result(timeout=60) for f in futures]
        return [
            self.proxy.call("submitJob", command=c, priority=priority)
            for c in commands
        ]

    def poll(self, job_ids: list[str]) -> PollSample:
        """One monitoring sweep over every job."""
        if self.use_packing:
            batch = PackBatch(self.proxy)
            futures = [batch.call("queryStatus", jobId=j) for j in job_ids]
            batch.flush()
            return PollSample([f.result(timeout=60) for f in futures], 1)
        return PollSample(
            [self.proxy.call("queryStatus", jobId=j) for j in job_ids], len(job_ids)
        )

    def wait_all_done(
        self, job_ids: list[str], *, timeout: float = 30.0, interval: float = 0.02
    ) -> tuple[list[dict[str, Any]], int]:
        """Poll until every job is DONE/CANCELLED; returns (final
        statuses, total SOAP messages spent polling)."""
        import time

        messages = 0
        deadline = time.monotonic() + timeout
        while True:
            sample = self.poll(job_ids)
            messages += sample.soap_messages
            if all(s["state"] in (DONE, CANCELLED) for s in sample.statuses):
                return sample.statuses, messages
            if time.monotonic() > deadline:
                raise TimeoutError(f"jobs not done within {timeout}s")
            time.sleep(interval)  # repro: disable=no-direct-sleep-random — client-side poll pacing is this helper's contract

    def fetch_results(self, job_ids: list[str]) -> list[dict[str, Any]]:
        """Fetch every job's result; packed, this is one SOAP message."""
        if self.use_packing:
            batch = PackBatch(self.proxy)
            futures = [batch.call("fetchResult", jobId=j) for j in job_ids]
            batch.flush()
            return [f.result(timeout=60) for f in futures]
        return [self.proxy.call("fetchResult", jobId=j) for j in job_ids]
