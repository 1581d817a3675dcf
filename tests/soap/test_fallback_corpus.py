"""Documents the scanner's value walk leaves to the tree path get the
answers they always got.

The walk decodes only the common shape of an RPC entry; one of the
triggers below anywhere in a document restarts it on the tree path
(DESIGN §6).  Each case of ``golden/fallback_corpus.json`` puts one
trigger in a packed request (beside an ordinary entry), an unpacked
request, a packed response and an unpacked response, and holds what the
code answered when the corpus was recorded — before the walk existed:

* ``server``: the HTTP status and body a server with the SPI handler
  pair answers each request with;
* ``client``: each slot of a two-call :class:`PackBatch` fed the packed
  response, and the unpacked one's first entry as the client reader
  (:func:`decode_response_envelope`) hands it to :func:`parse_rpc_response`.

The ``ordinary`` case is the control: a document the walk does read.
``python tests/soap/test_fallback_corpus.py write`` re-records the file
from whatever ``repro`` is on the path.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.core import PackBatch, spi_server_handlers
from repro.http.message import Headers, HttpRequest
from repro.server import HandlerChain, ServerConfig, build_server, service_from_functions
from repro.soap.deserializer import decode_response_envelope, parse_rpc_response

CORPUS_PATH = pathlib.Path(__file__).parent / "golden" / "fallback_corpus.json"
NS = "urn:corpus"

ENVELOPE = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    '<SOAP-ENV:Envelope xmlns:SOAP-ENV="http://schemas.xmlsoap.org/soap/envelope/" '
    'xmlns:xsd="http://www.w3.org/2001/XMLSchema" '
    'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance">'
    "<SOAP-ENV:Body>{}</SOAP-ENV:Body></SOAP-ENV:Envelope>"
)
PACK = '<spi:Parallel_Method xmlns:spi="urn:spi:soap-passing-interface" xmlns:m0="urn:corpus">{}</spi:Parallel_Method>'
FINE = '<{n} xsi:type="xsd:string">fine</{n}>'

#: trigger -> the content of one entry, ``{n}`` standing for the value's
#: name ("value" in a request, "return" in a response)
TRIGGERS = {
    "ordinary": '<{n} xsi:type="SOAP-ENC:Array"><item xsi:type="xsd:struct"><a xsi:type="xsd:int">7</a>'
    '<b xsi:type="xsd:double">-INF</b><c xsi:nil="true"/><d xsi:type="xsd:string">&lt;&#233;&amp;</d>'
    '</item></{n}>',
    "suspect character, legal": '<{n} xsi:type="xsd:string" note="]]>">x</{n}>',
    "suspect character, illegal": '<{n} xsi:type="xsd:string">a\x01b</{n}>',
    "namespace declared inside an entry": '<{n} xmlns:q="urn:q" xsi:type="xsd:string">x</{n}>',
    "href": '<{n} href="#id0"/>',
    "id": '<{n} id="id1" xsi:type="xsd:string">x</{n}>',
    "untyped value": "<{n}>plain</{n}>",
    "mixed content in a leaf": '<{n} xsi:type="xsd:string">a<b>x</b>c</{n}>',
    "mixed content in a struct": '<{n} xsi:type="xsd:struct">t<a xsi:type="xsd:int">1</a></{n}>',
    "comment": '<{n} xsi:type="xsd:string">a<!-- c -->b</{n}>',
    "CDATA section": '<{n} xsi:type="xsd:string"><![CDATA[<b>]]></{n}>',
    "processing instruction": '<{n} xsi:type="xsd:string">a<?pi x?>b</{n}>',
    "end tag not literally the expected one": '<{n} xsi:type="xsd:string">x</{n} >',
    "decode error": '<{n} xsi:type="xsd:int">x</{n}>',
    "duplicate parameter": '<{n} xsi:type="xsd:string">a</{n}><{n} xsi:type="xsd:string">b</{n}>',
    "duplicate member": '<{n} xsi:type="xsd:struct"><a xsi:type="xsd:int">1</a><a xsi:type="xsd:int">2</a></{n}>',
    "text between packed entries": None,  # see documents()
}


def documents(trigger: str) -> dict[str, str]:
    """The four documents of one case."""
    content = TRIGGERS[trigger]
    if content is None:  # the trigger is in the pack, not in an entry
        request, response = FINE.format(n="value"), FINE.format(n="return")
        between = "stray"
    else:
        request, response = content.format(n="value"), content.format(n="return")
        between = ""
    if trigger == "href":  # the target travels as a body entry of its own
        target = '<multiRef id="id0" xsi:type="xsd:string">shared</multiRef>'
    else:
        target = ""
    fine_request, fine_response = FINE.format(n="value"), FINE.format(n="return")
    return {
        "packed request": ENVELOPE.format(
            PACK.format(
                f'<m0:echo requestID="r0">{fine_request}</m0:echo>{between}'
                f'<m0:echo requestID="r1">{request}</m0:echo>'
            )
            + target
        ),
        "request": ENVELOPE.format(f'<m:echo xmlns:m="{NS}">{request}</m:echo>{target}'),
        "packed response": ENVELOPE.format(
            PACK.format(
                f'<m0:echoResponse requestID="r0">{fine_response}</m0:echoResponse>{between}'
                f'<m0:echoResponse requestID="r1">{response}</m0:echoResponse>'
            )
        ),
        "response": ENVELOPE.format(f'<m:echoResponse xmlns:m="{NS}">{response}</m:echoResponse>'),
    }


def outcome(function, *args) -> list:
    try:
        return ["returned", repr(function(*args))]
    except Exception as exc:  # the corpus records which exception, and what it says
        return ["raised", type(exc).__name__, str(exc)]


def _echo(value):
    return value


class _ReplayProxy:
    """What :class:`PackBatch` needs of a proxy; the exchange answers
    with fixed bytes."""

    namespace = NS
    extra_headers: list = []

    def __init__(self, body: bytes) -> None:
        self._body = body

    def exchange(self, envelope, **_):
        return self._body


def observe(trigger: str) -> dict:
    """What the code on the path makes of one case's documents."""
    server = build_server(
        ServerConfig(
            services=[service_from_functions("Corpus", NS, {"echo": _echo})],
            architecture="common",
            chain=HandlerChain(spi_server_handlers()),
        )
    )
    docs = documents(trigger)
    answers = {}
    for side in ("packed request", "request"):
        response = server.endpoint(
            HttpRequest(
                "POST",
                "/services/Corpus",
                Headers({"Content-Type": "text/xml", "SOAPAction": '""'}),
                docs[side].encode("utf-8"),
            )
        )
        answers[side] = [response.status, response.body.decode("utf-8")]
    batch = PackBatch(_ReplayProxy(docs["packed response"].encode("utf-8")))
    batch.call("echo", value="a")
    batch.call("echo", value="b")
    slots = batch.send()
    answers["packed response"] = [
        ["raised", type(slot).__name__, str(slot)]
        if isinstance(slot, BaseException)
        else ["returned", repr(slot)]
        for slot in slots
    ]
    answers["response"] = outcome(
        lambda body: parse_rpc_response(decode_response_envelope(body).first_body_entry()),
        docs["response"].encode("utf-8"),
    )
    return answers


def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def test_corpus_and_triggers_agree():
    assert set(load_corpus()["cases"]) == set(TRIGGERS)


@pytest.mark.parametrize("trigger", sorted(TRIGGERS))
def test_answers_are_the_recorded_ones(trigger):
    case = load_corpus()["cases"][trigger]
    assert case["documents"] == documents(trigger)
    assert observe(trigger) == case["answers"]


if __name__ == "__main__":
    if sys.argv[1:] != ["write"]:
        sys.exit("usage: test_fallback_corpus.py write")
    corpus = {
        "about": "see tests/soap/test_fallback_corpus.py",
        "cases": {t: {"documents": documents(t), "answers": observe(t)} for t in TRIGGERS},
    }
    CORPUS_PATH.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
