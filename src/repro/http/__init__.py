"""From-scratch HTTP/1.1: messages, incremental parser, client, server."""

from repro.http.connection import ConnectionPool, HttpConnection
from repro.http.message import Headers, HttpRequest, HttpResponse
from repro.http.parser import (
    ChannelReader,
    ConnectionClosedCleanly,
    MessageParser,
    RequestParser,
    encode_chunked,
    read_request,
    read_response,
)
from repro.http.evented import EventedHttpServer
from repro.http.server import HttpServer

__all__ = [
    "ChannelReader",
    "ConnectionClosedCleanly",
    "ConnectionPool",
    "EventedHttpServer",
    "Headers",
    "HttpConnection",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "MessageParser",
    "RequestParser",
    "encode_chunked",
    "read_request",
    "read_response",
]
