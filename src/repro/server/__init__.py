"""Server side: services, stages, handler chain, one server.

:class:`SoapServer` is built by :func:`build_server` from a
:class:`ServerConfig`, whose ``architecture`` picks the scheduling
policy:

* ``"common"`` — the paper's Figure 1 baseline: protocol and
  application processing coupled in one thread per connection.
* ``"staged"`` — the paper's Figure 2 contribution substrate:
  independent protocol and application thread pools, so one SOAP
  message can drive multiple service operations concurrently.
"""

from repro.server.config import ServerConfig, build_server
from repro.server.container import ServiceContainer
from repro.server.endpoint import SoapEndpoint
from repro.server.handlers import Handler, HandlerChain, MessageContext
from repro.server.security_handler import SecurityVerifyHandler
from repro.server.service import (
    ServiceDefinition,
    operation,
    service_from_functions,
    service_from_object,
)
from repro.server.soap_server import SoapServer
from repro.server.stage import CompletionLatch, Stage, TaskFuture

__all__ = [
    "CompletionLatch",
    "Handler",
    "HandlerChain",
    "MessageContext",
    "SecurityVerifyHandler",
    "ServerConfig",
    "ServiceContainer",
    "ServiceDefinition",
    "SoapEndpoint",
    "SoapServer",
    "Stage",
    "TaskFuture",
    "build_server",
    "operation",
    "service_from_functions",
    "service_from_object",
]
