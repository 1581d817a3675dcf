"""Differential: the one decoder read from its two sources.

The tree source builds ``Element`` entries and decodes them
(``read_request_envelope`` / ``Envelope.parse`` + ``parse_rpc_*``); the
scanner source decodes entries straight off the scanner's value walk
(``decode_request_envelope`` on a server, ``decode_response_envelope`` on
a client).  Every value the encoder emits must come back ``canon``-equal
from both, in packed and unpacked requests and responses, and off the
walk itself, not its fallback.  On arbitrary wire values (typed, untyped,
nil, mixed content, CDATA, comments) both must return the same values or
raise the same exception type and message.

A packed entry's start tag is read in one match where it has the form
our writer emits; every other spelling of it (entity references or odd
characters in its ``requestID``, other whitespace or quotes, a second
attribute, a declaration, self-closing, an undeclared or rebound prefix,
a C0 control that trips the legality probe) must read as the token path
and the tree source read it.

The client reads the whole response, packed or not: a document cut after
its first entry, padded after its Body or followed by a second root is
refused by a packed batch and by an unpacked call alike.
"""

import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.client import ClientConfig, ServiceProxy
from repro.client.proxy import _fault_of
from repro.core import ClientAssembler, PackBatch, packformat
from repro.core.dispatcher import pack_results
from repro.errors import HttpError, ReproError
from repro.http import Headers, HttpConnection, HttpRequest, HttpServer
from repro.server import ServerConfig, build_server, service_from_functions
from repro.soap import Envelope, serialize_rpc_request, serialize_rpc_response
from repro.soap.deserializer import (
    DecodedEntry,
    decode_request_envelope,
    decode_response_envelope,
    parse_rpc_request,
    parse_rpc_response,
    read_request_envelope,
)
from repro.transport.inproc import InProcTransport
from repro.xmlcore.treebuilder import XmlScanner

from ..soap.test_fallback_corpus import _ReplayProxy
from .test_codec_properties import ROOT, _render, canon, encodable, wire_values

_SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
NS = "urn:sources"

params = st.dictionaries(st.sampled_from(["a", "b", "records", "é", "item"]), encodable, max_size=3)


def _requests(envelope: Envelope) -> list:
    entries = envelope.body_entries
    if len(entries) == 1 and packformat.is_parallel_method(entries[0]):
        entries = packformat.unpack_parallel_method(entries[0])
    return entries


def _canon_requests(entries) -> list:
    return [canon([r.namespace, r.operation, r.params]) for r in map(parse_rpc_request, entries)]


@_SETTINGS
@given(st.lists(params, min_size=1, max_size=4))
def test_packed_requests_decode_alike_from_both_sources(calls):
    assembler = ClientAssembler(NS)
    for index, call in enumerate(calls):
        assembler.add_call(f"op{index}", call)
    document = assembler.assemble().to_bytes()
    scanned = _requests(decode_request_envelope(document))
    assert all(isinstance(entry, DecodedEntry) for entry in scanned)
    assert [e.items() for e in scanned] == [e.items() for e in _requests(read_request_envelope(document))]
    assert _canon_requests(scanned) == _canon_requests(_requests(read_request_envelope(document)))


@_SETTINGS
@given(params)
def test_unpacked_requests_decode_alike_from_both_sources(call):
    envelope = Envelope()
    envelope.add_body(serialize_rpc_request(NS, "op", call))
    document = envelope.to_bytes()
    scanned = decode_request_envelope(document).body_entries
    assert isinstance(scanned[0], DecodedEntry)
    assert _canon_requests(scanned) == _canon_requests(read_request_envelope(document).body_entries)


class _Handle:
    def __init__(self, index: int) -> None:
        self.request_id = packformat.request_id(index)
        self.operation = "op"


def _slots(envelope: Envelope, count: int) -> list:
    return [
        ("raised", type(slot), str(slot)) if isinstance(slot, BaseException) else canon(slot)
        for slot in pack_results(envelope, [_Handle(i) for i in range(count)])
    ]


@_SETTINGS
@given(st.lists(encodable, min_size=1, max_size=4))
def test_packed_responses_decode_alike_from_both_sources(values):
    responses = []
    for index, value in enumerate(values):
        response = serialize_rpc_response(NS, "op", value)
        response.set("requestID", packformat.request_id(index))
        responses.append(response)
    envelope = Envelope()
    envelope.add_body(packformat.build_parallel_method(responses, assign_ids=False))
    document = envelope.to_bytes()
    scanned = decode_response_envelope(document)
    assert all(isinstance(e, DecodedEntry) for e in _requests(scanned))
    tree = Envelope.parse(document, server=True)
    assert _slots(scanned, len(values)) == _slots(tree, len(values))


@_SETTINGS
@given(encodable)
def test_unpacked_responses_decode_alike_from_both_sources(value):
    envelope = Envelope()
    envelope.add_body(serialize_rpc_response(NS, "op", value))
    document = envelope.to_bytes()
    scanned = decode_response_envelope(document).first_body_entry()
    assert isinstance(scanned, DecodedEntry)
    tree = parse_rpc_response(Envelope.parse(document).first_body_entry())
    assert canon(parse_rpc_response(scanned).value) == canon(tree.value)


def _outcome(function, *args):
    try:
        return ("returned", canon(function(*args)))
    except Exception as exc:  # the differential is about *which* exception
        return ("raised", type(exc), str(exc))


def _entry_outcomes(parse, document):
    """What a server makes of the document: the envelope's failure, or
    each request entry's parameters or failure."""
    try:
        entries = _requests(parse(document))
    except Exception as exc:  # the differential is about *which* exception
        return ("raised", type(exc), str(exc))
    return [_outcome(lambda entry: parse_rpc_request(entry).params, entry) for entry in entries]


@_SETTINGS
@given(st.lists(wire_values, min_size=1, max_size=3), st.booleans())
def test_wire_values_decode_alike_or_fail_alike(nodes, packed):
    content = "".join(_render(node, name) for node, name in zip(nodes, ["a", "b", "c"]))
    if packed:
        body = (
            '<spi:Parallel_Method xmlns:spi="urn:spi:soap-passing-interface" xmlns:m="urn:x">'
            f'<m:op requestID="r0">{content}</m:op><m:op requestID="r1"><a xsi:type="xsd:int">1</a></m:op>'
            "</spi:Parallel_Method>"
        )
    else:
        body = f'<m:op xmlns:m="urn:x">{content}</m:op>'
    document = (
        ROOT.replace("<r ", '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/" ')
        + f"<e:Body>{body}</e:Body></e:Envelope>"
    )
    assert _entry_outcomes(decode_request_envelope, document) == _entry_outcomes(
        read_request_envelope, document
    )


def test_a_decoded_entry_keeps_its_tag_and_attributes_not_its_children():
    assembler = ClientAssembler(NS)
    assembler.add_call("op", {"a": 1})
    entry = _requests(decode_request_envelope(assembler.assemble().to_bytes()))[0]
    assert entry.tag == f"{{{NS}}}op" and entry.get("requestID") == "r0"
    assert parse_rpc_request(entry).params == {"a": 1}
    with pytest.raises(Exception, match="decoded off the scanner"):
        entry.element_children()


# -- a packed entry's start tag: one match, the token path, the tree source ----------

# The first of each list is what our writer emits.  One entry in three
# varies one or two of name, tag form, requestID and content from it, so
# the one match is taken often, and its memoised names meet entries that
# rebind their prefix.
ENTRY_FORMS = [
    ' requestID="{}"', ' requestID = "{}"', '\trequestID="{}"', '\n requestID="{}"', " requestID='{}'",
    ' requestID="{}" spi:oneWay="1"', ' spi:oneWay="1" requestID="{}"', ' xmlns:m="urn:y" requestID="{}"',
    ' requestID="{}" xmlns:m="urn:y"', ' requestID="{}" ', "",
]  # fmt: skip
REQUEST_IDS = [
    "r", "", "a&amp;b", "&lt;x&gt;", "say &quot;hi&quot;", "it's", "a'b", "x>y", "a\tb",
    "\u00e9\u00e8", "\u4e2d\U0001f389", "\x01", "a\x08b", "\x1f", "&#65;", "&bogus;", '"',
]  # fmt: skip
SIDES = {
    "request": (
        ["m:op", "op", "u:op", "m:opResponse"],
        ['<a xsi:type="xsd:int">1</a>', "", '<a xsi:type="xsd:string">x&amp;y</a><b xsi:type="xsd:boolean">true</b>',
         "<a>untyped</a>", "text"],
    ),
    "response": (
        ["m:opResponse", "opResponse", "u:opResponse", "m:op", "e:Fault"],
        ['<return xsi:type="xsd:int">7</return>', "", '<return xsi:type="xsd:string">a&lt;b</return>',
         "<return>untyped</return>", '<return xsi:type="xsd:int">1</return><return xsi:type="xsd:int">2</return>',
         "<faultcode>e:Server</faultcode><faultstring>boom</faultstring>"],
    ),
}  # fmt: skip
SPI_ROOT = (
    '<e:Envelope xmlns:e="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
    'xmlns:spi="urn:spi:soap-passing-interface" xmlns:m="urn:x"><e:Body>'
)


@st.composite
def _entry_documents(draw):
    side = draw(st.sampled_from(sorted(SIDES)))
    names, contents = SIDES[side]
    packs = []
    for rebind in draw(st.lists(st.sampled_from(["", "", ' xmlns:m="urn:z"']), min_size=1, max_size=2)):
        entries = []
        for index in range(draw(st.integers(1, 4))):
            pools = (names, ENTRY_FORMS, REQUEST_IDS, contents)
            odd = draw(st.sets(st.sampled_from(range(4)), min_size=1, max_size=2)) if draw(st.integers(0, 2)) == 0 else ()
            name, form, value, content = (
                draw(st.sampled_from(pool[1:])) if part in odd else pool[0] for part, pool in enumerate(pools)
            )
            attributes = form.format(value + str(index))
            space = draw(st.sampled_from(["", "", "\n  ", "\t"]))
            if odd and draw(st.integers(0, 4)) == 0:
                entries.append(f"{space}<{name}{attributes}/>")
            else:
                entries.append(f"{space}<{name}{attributes}>{content}</{name}>")
        if draw(st.integers(0, 9)) == 0:  # an empty pack, then entries of the Body's own
            packs.append(f"<spi:Parallel_Method{rebind}/>{''.join(entries)}")
        else:
            packs.append(f"<spi:Parallel_Method{rebind}>{''.join(entries)}</spi:Parallel_Method>")
    return side, f"{SPI_ROOT}{''.join(packs)}</e:Body></e:Envelope>"


def _rpc(parse):
    def read(entry):
        rpc = parse(entry)
        return [rpc.namespace, rpc.operation, getattr(rpc, "params", None), getattr(rpc, "value", None)]

    return read


READERS = {  # side: (the scanner reader, its tree source, the entry decoder)
    "request": (decode_request_envelope, read_request_envelope, _rpc(parse_rpc_request)),
    "response": (decode_response_envelope, Envelope.parse, _rpc(parse_rpc_response)),
}


def _pack_outcomes(parse, read, document):
    """Per body entry, its tag, attributes, declarations and decoded RPC
    object (or failure), a pack's in a list; or the document's failure."""
    try:
        body = parse(document).body_entries
    except Exception as exc:  # the differential is about *which* exception
        return ("raised", type(exc), str(exc))

    def outcome(entry):
        if packformat.is_parallel_method(entry):
            return [outcome(child) for child in entry.element_children()]
        return (entry.tag, entry.items(), entry.nsmap, _outcome(read, entry))

    return [outcome(entry) for entry in body]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_entry_documents())
def test_entry_start_tags_read_alike_in_one_match_by_tokens_and_as_trees(case):
    side, document = case
    scanner, tree, read = READERS[side]
    one_match = _pack_outcomes(scanner, read, document)
    with mock.patch.object(XmlScanner, "next_entry", lambda *args: None):
        tokens = _pack_outcomes(scanner, read, document)
    assert one_match == tokens == _pack_outcomes(tree, read, document)


# -- the client reads the whole response ----------------------------------------

BODY_END = "</SOAP-ENV:Body>"


def _response_document(values: list, packed: bool) -> str:
    responses = [serialize_rpc_response(NS, "op", value) for value in values]
    envelope = Envelope()
    if packed:
        for index, response in enumerate(responses):
            response.set("requestID", packformat.request_id(index))
        envelope.add_body(packformat.build_parallel_method(responses, assign_ids=False))
    else:
        envelope.add_body(responses[0])
    return envelope.to_string()


def _client_refuses(document: str, calls: int, packed: bool) -> bool:
    """Whether the client answers every call of the response with a
    ``ReproError`` (a packed batch's slots, an unpacked call's raise)."""
    body = document.encode("utf-8")
    if packed:
        batch = PackBatch(_ReplayProxy(body))
        for _ in range(calls):
            batch.call("op")
        return all(isinstance(slot, ReproError) for slot in batch.send())
    proxy = ServiceProxy(ClientConfig(InProcTransport(), "replay", namespace=NS))
    proxy.exchange = lambda *args, **kwargs: body
    try:
        proxy.call("op")
    except ReproError:
        return True
    return False


@_SETTINGS
@given(st.lists(encodable, min_size=1, max_size=3), st.booleans(), st.data())
def test_a_cut_or_padded_response_is_refused(values, packed, data):
    values = values if packed else values[:1]
    document = _response_document(values, packed)
    assert not _client_refuses(document, len(values), packed)
    first_end = re.search(r"</[^>]*opResponse>", document).end()
    cut = data.draw(st.integers(first_end, len(document) - 1), label="cut")
    body_end = document.index(BODY_END) + len(BODY_END)
    for broken in (
        document[:cut],
        document[:body_end] + "<stray/>" + document[body_end:],
        document + "<SOAP-ENV:Envelope/>",
    ):
        assert _client_refuses(broken, len(values), packed), broken[-80:]


def _padded(app):
    """``app``, with an element appended after each response's root."""

    def serve(request):
        response = app(request)
        response.body += b"<stray/>"
        return response

    return serve


def test_a_padded_response_is_refused_end_to_end():
    server = build_server(
        ServerConfig(services=[service_from_functions("Echo", NS, {"echo": lambda payload: payload})])
    )
    transport = InProcTransport()
    with HttpServer(_padded(server.endpoint), transport=transport, address="padded").running() as address:
        proxy = ServiceProxy(ClientConfig(transport, address, namespace=NS, service_name="Echo"))
        with pytest.raises(ReproError, match="more than one root element"):
            proxy.call("echo", payload="hello")
        with HttpConnection(transport, address) as connection:  # a padded Client fault
            response = connection.request(
                HttpRequest("POST", "/services/Echo", Headers({"SOAPAction": '""'}), b"<not-soap/>")
            )
    assert response.status == 400 and b"<SOAP-ENV:Fault>" in response.body
    assert isinstance(_fault_of(response), HttpError)
