"""Byte-identity of the RPC layer's wire output with the golden corpus."""

import json

import pytest

from . import rpc_wire_cases

GOLDEN = json.loads(rpc_wire_cases.GOLDEN.read_text(encoding="utf-8"))


def test_corpus_and_cases_agree():
    assert set(GOLDEN) == set(rpc_wire_cases.CASES)


@pytest.mark.parametrize("name", sorted(rpc_wire_cases.CASES))
def test_envelopes_are_byte_identical(name):
    rendered = rpc_wire_cases.render(name)
    for side in ("request", "response"):
        # the text first, where the corpus holds it: a readable diff
        assert rendered[side].get("text") == GOLDEN[name][side].get("text")
        assert rendered[side] == GOLDEN[name][side]
