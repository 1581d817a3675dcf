"""Byte transports: in-process, loopback TCP and shaped (netem) TCP.

The chaos fault-injection wrapper the resilience tests use is a test
fixture and lives with them, in ``tests/transport/chaos.py``."""

from repro.transport.base import (
    Address,
    Channel,
    ChannelClosed,
    Listener,
    ListenerClosed,
    Transport,
)
from repro.transport.inproc import InProcTransport
from repro.transport.netprofile import (
    NULL_PROFILE,
    PAPER_LAN,
    WAN,
    LinkScheduler,
    NetworkProfile,
)
from repro.transport.shaped import ShapedTransport
from repro.transport.tcp import TcpTransport

__all__ = [
    "Address",
    "Channel",
    "ChannelClosed",
    "InProcTransport",
    "LinkScheduler",
    "Listener",
    "ListenerClosed",
    "NULL_PROFILE",
    "NetworkProfile",
    "PAPER_LAN",
    "ShapedTransport",
    "TcpTransport",
    "Transport",
    "WAN",
]
