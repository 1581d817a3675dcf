"""SPI — SOAP Passing Interface (the paper's contribution).

* :mod:`repro.core.packformat` — the ``Parallel_Method`` wire format (Fig. 4)
* :mod:`repro.core.assembler` — client/server assemblers (§3.4)
* :mod:`repro.core.dispatcher` — server/client dispatchers (§3.5)
* :mod:`repro.core.batch` — ``PackBatch`` user API and ``PackedInvoker``
* :mod:`repro.core.autopack` — automatic packing (paper future work)
* :mod:`repro.core.remote_exec` — the remote-execution interface
* :mod:`repro.core.spi` — the top-level facade

Install :func:`spi_server_handlers` into a server's handler chain to
enable packing server-side; service code needs no change.
"""

from repro.core.assembler import ClientAssembler, ServerAssembler
from repro.core.autopack import AutoPacker
from repro.core.batch import PackBatch, PackedInvoker
from repro.core.dispatcher import ClientDispatcher, ServerDispatcher, spi_server_handlers
from repro.core.oneway import accepted_response, is_accepted, is_one_way, mark_one_way
from repro.core.packformat import (
    build_parallel_method,
    is_parallel_method,
    unpack_parallel_method,
)
from repro.core.remote_exec import (
    ExecutionPlan,
    PlanStep,
    RemoteExecutor,
    make_plan_runner_service,
)
from repro.core.spi import SpiClient, connect

__all__ = [
    "AutoPacker",
    "ClientAssembler",
    "ClientDispatcher",
    "ExecutionPlan",
    "PackBatch",
    "PackedInvoker",
    "PlanStep",
    "RemoteExecutor",
    "ServerAssembler",
    "ServerDispatcher",
    "SpiClient",
    "accepted_response",
    "build_parallel_method",
    "is_accepted",
    "is_one_way",
    "mark_one_way",
    "connect",
    "is_parallel_method",
    "make_plan_runner_service",
    "spi_server_handlers",
    "unpack_parallel_method",
]
