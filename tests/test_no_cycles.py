"""Every public call frees what it allocated by reference counting as it
returns: no object is left in a reference cycle for the garbage collector,
whether the call succeeds or refuses its input."""

from __future__ import annotations

import gc

import pytest

from xmathml import (
    ConversionError,
    EntityMode,
    ParseError,
    SerializeOptions,
    build_content,
    build_parallel,
    build_presentation,
    check_links,
    parse_xmath,
    read_xml_tree,
    serialize_mathml,
)
from conftest import fixture_text
from helpers import bra_ket_chain, serialize_xmath, sum_of
from sharegen import shared_documents
from treegen import make_corpus

_INPUTS = (
    [fixture_text("sum_function.xmath.xml"), fixture_text("quantum_defint.xmath.xml")]
    + [serialize_xmath(doc) for doc in make_corpus(8, seed=20261019)]
    + shared_documents(8, seed=20261019)
    + [sum_of(bra_ket_chain("p1", 3))]
)

#: One input per way parse_xmath refuses a text.
_REFUSED = {
    "expat": "<XMApp><XMTok>a</XMTok>",
    "expat-after-entity": "<XMApp><XMTok>&Foo;</XMTok></XMApp>",
    "doctype-handler": "<!DOCTYPE x><XMTok/>",
    "nesting-handler": "<XMApp>" * 201 + "</XMApp>" * 201,
    "text-content": "<XMApp>x&alpha;<XMTok/></XMApp>",
    "unknown-element": "<XMApp><Bogus/></XMApp>",
    "dual-arity": "<XMDual><XMTok/></XMDual>",
    "ref-without-idref": "<XMRef/>",
    "token-child": "<XMTok><XMTok/></XMTok>",
    "dangling-idref": "<XMApp><XMRef idref='q'/></XMApp>",
    "duplicate-id": "<XMApp><XMTok xml:id='t'/><XMTok xml:id='t'/></XMApp>",
}

#: Inputs that parse but do not convert.
_UNCONVERTIBLE = (
    "<XMApp><XMRef xml:id='r' idref='r'/><XMTok>a</XMTok></XMApp>",  # ref cycle
    "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>a</XMTok>"
    "<XMTok xml:id='x.cmml'>b</XMTok></XMApp>",  # id collision
)

_OPTIONS = {
    "plain": SerializeOptions(),
    "pretty": SerializeOptions(pretty=True),
    "prefixed": SerializeOptions(namespace_prefix="m"),
    "numeric": SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS),
}


@pytest.fixture(autouse=True, scope="module")
def _frozen_heap():
    """Collections here then scan what the tests made, not the whole process."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


def cyclic_garbage(call, *args, **kwargs) -> int:
    """Objects a call leaves in reference cycles, refused input included.

    A first call fills one-time caches; the second runs with the collector
    off, so a collection right after it counts what that call left behind.
    """
    enabled = gc.isenabled()
    try:
        for _ in range(2):
            gc.collect()
            gc.disable()
            try:
                call(*args, **kwargs)
            except (ParseError, ConversionError):
                pass
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _converted(text: str):
    """The parallel math element of a text, or None if it is refused."""
    try:
        return build_parallel(parse_xmath(text))
    except (ParseError, ConversionError):
        return None


def test_parse_xmath_accepts():
    assert [cyclic_garbage(parse_xmath, text) for text in _INPUTS] == [0] * len(_INPUTS)


@pytest.mark.parametrize("kind", _REFUSED)
def test_parse_xmath_refuses(kind):
    with pytest.raises(ParseError):
        parse_xmath(_REFUSED[kind])
    assert cyclic_garbage(parse_xmath, _REFUSED[kind]) == 0


@pytest.mark.parametrize(
    "build",
    [build_parallel, build_presentation, build_content],
    ids=["parallel", "presentation", "content"],
)
def test_builds(build):
    docs = [parse_xmath(text) for text in _INPUTS + list(_UNCONVERTIBLE)]
    assert [cyclic_garbage(build, doc) for doc in docs] == [0] * len(docs)


@pytest.mark.parametrize("mode", _OPTIONS)
def test_serialize_mathml(mode):
    maths = [math for math in map(_converted, _INPUTS) if math is not None]
    assert len(maths) > len(_INPUTS) // 2
    garbage = [cyclic_garbage(serialize_mathml, math, _OPTIONS[mode]) for math in maths]
    assert garbage == [0] * len(maths)


def test_check_path():
    def check(text: str) -> None:
        check_links(read_xml_tree(text))

    outputs = [serialize_mathml(math) for math in map(_converted, _INPUTS) if math]
    outputs.append(outputs[0].replace("</math>", ""))  # refused by the reader
    assert [cyclic_garbage(check, text) for text in outputs] == [0] * len(outputs)
