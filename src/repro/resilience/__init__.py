"""Resilience layer: deadlines, retry policy, fault isolation plumbing.

One import gives a client everything it needs to make packed SOAP
calls degrade gracefully::

    from repro.resilience import CallPolicy

    proxy.call_with_policy("echo", CallPolicy(deadline=0.5, retries=2),
                           payload="x")

Server-side counterparts (bounded stage queues with ``Server.Busy``
shedding, per-entry deadline skip with ``Server.Timeout`` faults) live
in :mod:`repro.server`; the deterministic fault-injection transport
that exercises all of it is ``ChaosTransport`` in
``tests/transport/chaos.py``.
"""

from repro.resilience.deadline import (
    DEADLINE_HEADER_TAG,
    REMAINING_MS_ATTR,
    RESILIENCE_NS,
    attach_deadline,
    deadline_header,
    extract_deadline,
)
from repro.resilience.policy import (
    DEFAULT_POLICY,
    CallPolicy,
    Deadline,
    RetryState,
    execute_with_policy,
)

__all__ = [
    "CallPolicy",
    "DEADLINE_HEADER_TAG",
    "DEFAULT_POLICY",
    "Deadline",
    "REMAINING_MS_ATTR",
    "RESILIENCE_NS",
    "RetryState",
    "attach_deadline",
    "deadline_header",
    "execute_with_policy",
    "extract_deadline",
]
