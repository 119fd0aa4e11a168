from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    NodeKind,
    ParseError,
    ParseErrorKind,
    parse_xmath,
    serialize_xmath,
    structurally_equal,
)
from helpers import KNOWN_ROLES
from treegen import random_document


def test_sum_function_structure(sum_function_doc):
    root = sum_function_doc.root
    assert root.kind is NodeKind.APP
    assert [child.kind for child in root.children] == [
        NodeKind.TOK,
        NodeKind.TOK,
        NodeKind.DUAL,
    ]
    plus, a, dual = root.children
    assert plus.text == "+"
    assert plus.attrs.role == "ADDOP"
    assert plus.attrs.meaning == "plus"
    assert a.text == "a"
    assert a.attrs.font == "italic"
    content, presentation = dual.children
    assert [c.kind for c in content.children] == [NodeKind.REF] * 3
    f_tok = presentation.children[0]
    assert f_tok.attrs.xml_id == "m1.1"
    assert f_tok.attrs.role == "FUNCTION"
    open_paren = presentation.children[1].children[0]
    assert open_paren.attrs.stretchy is False


def test_minimal_token_document():
    doc = parse_xmath("<XMTok/>")
    assert doc.root.kind is NodeKind.TOK
    assert doc.root.text == ""
    assert doc.root.attrs.role is None


def test_empty_token_text_preserved(quantum_doc):
    times = next(
        node for node in quantum_doc.nodes if node.attrs.meaning == "times"
    )
    assert times.text == ""
    assert times.attrs.role == "MULOP"


def test_dangling_idref(sum_function_xmath):
    mutated = sum_function_xmath.replace('idref="m1.1"', 'idref="m1.9"')
    declared = set(re.findall(r'xml:id="([^"]+)"', mutated))
    referenced = set(re.findall(r'idref="([^"]+)"', mutated))
    missing = referenced - declared
    assert missing == {"m1.9"}
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(mutated)
    assert excinfo.value.kind is ParseErrorKind.DANGLING_IDREF
    assert "m1.9" in excinfo.value.detail
    assert excinfo.value.line > 0


def test_idref_outside_xmref_is_located():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath('<XMApp><XMTok>f</XMTok><XMTok idref="nope">a</XMTok></XMApp>')
    assert excinfo.value.kind is ParseErrorKind.DANGLING_IDREF
    assert (excinfo.value.line, excinfo.value.col) == (1, 24)


def test_duplicate_id():
    text = '<XMApp><XMTok xml:id="t1">a</XMTok><XMTok xml:id="t1">b</XMTok></XMApp>'
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(text)
    assert excinfo.value.kind is ParseErrorKind.DUPLICATE_ID


def test_dual_arity():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMDual><XMTok>a</XMTok></XMDual>")
    assert excinfo.value.kind is ParseErrorKind.DUAL_ARITY
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMDual><XMTok>a</XMTok><XMTok>b</XMTok><XMTok>c</XMTok></XMDual>")
    assert excinfo.value.kind is ParseErrorKind.DUAL_ARITY


def test_unknown_element():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMArray/>")
    assert excinfo.value.kind is ParseErrorKind.UNKNOWN_ELEMENT
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMApp><mi>a</mi></XMApp>")
    assert excinfo.value.kind is ParseErrorKind.UNKNOWN_ELEMENT


def test_malformed_xml_has_location():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMApp><XMTok>a</XMTok>")
    err = excinfo.value
    assert err.kind is ParseErrorKind.MALFORMED_XML
    assert err.line >= 1 and err.col >= 1


def test_mixed_content_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMApp>stray<XMTok>a</XMTok></XMApp>")
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML


def test_ref_shape_violations():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMRef/>")
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML
    with pytest.raises(ParseError) as excinfo:
        parse_xmath('<XMApp><XMRef idref="t"><XMTok xml:id="t"/></XMRef></XMApp>')
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML


def test_token_with_child_elements_rejected():
    with pytest.raises(ParseError) as excinfo:
        parse_xmath("<XMTok><XMTok>a</XMTok></XMTok>")
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML


def test_math_wrappers_accepted():
    doc = parse_xmath("<Math><XMath><XMTok>a</XMTok></XMath></Math>")
    assert doc.root.kind is NodeKind.TOK
    doc = parse_xmath("<Math><XMApp><XMTok>f</XMTok></XMApp></Math>")
    assert doc.root.kind is NodeKind.APP


def test_namespace_prefixes_tolerated():
    text = (
        '<ltx:XMApp xmlns:ltx="http://dlmf.nist.gov/LaTeXML">'
        "<ltx:XMTok>a</ltx:XMTok></ltx:XMApp>"
    )
    doc = parse_xmath(text)
    assert doc.root.kind is NodeKind.APP
    assert doc.root.children[0].text == "a"


def test_numeric_character_references_normalized():
    doc = parse_xmath("<XMTok>&#x222B;</XMTok>")
    assert doc.root.text == "∫"


def test_named_entities_resolved():
    doc = parse_xmath("<XMTok>&int;</XMTok>")
    assert doc.root.text == "∫"


def test_unknown_attributes_pass_through():
    doc = parse_xmath('<XMTok color="red" role="ID">a</XMTok>')
    assert doc.root.attrs.extra == {"color": "red"}
    assert structurally_equal(parse_xmath(serialize_xmath(doc)).root, doc.root)


def test_round_trip_sum_function(sum_function_xmath):
    doc = parse_xmath(sum_function_xmath)
    again = parse_xmath(serialize_xmath(doc))
    assert structurally_equal(doc.root, again.root)


def test_serializer_normalizes_attribute_order():
    doc = parse_xmath('<XMTok xml:id="t" role="ID" font="italic">a</XMTok>')
    line = serialize_xmath(doc).strip()
    assert line == '<XMTok font="italic" role="ID" xml:id="t">a</XMTok>'


def test_round_trip_preserves_scriptpos(quantum_xmath):
    doc = parse_xmath(quantum_xmath)
    text = serialize_xmath(doc)
    assert 'scriptpos="post2"' in text
    assert structurally_equal(doc.root, parse_xmath(text).root)


def test_round_trip_empty_token():
    doc = parse_xmath('<XMTok meaning="times" role="MULOP"></XMTok>')
    text = serialize_xmath(doc)
    assert "<XMTok" in text and "/>" in text
    assert structurally_equal(doc.root, parse_xmath(text).root)


def test_round_trip_whitespace_token_text():
    doc = parse_xmath("<XMTok> </XMTok>")
    assert doc.root.text == " "
    assert parse_xmath(serialize_xmath(doc)).root.text == " "


def test_round_trip_carriage_return_token_text():
    doc = parse_xmath("<XMTok>a&#13;b</XMTok>")
    assert doc.root.text == "a\rb"
    assert parse_xmath(serialize_xmath(doc)).root.text == "a\rb"


def test_empty_app_parses():
    doc = parse_xmath("<XMApp/>")
    assert doc.root.kind is NodeKind.APP
    assert doc.root.children == []


def test_doctype_rejected():
    bomb = (
        '<!DOCTYPE x [<!ENTITY a "aaaaaaaaaa"><!ENTITY b "&a;&a;&a;&a;">]>'
        "<XMTok>&b;</XMTok>"
    )
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(bomb)
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML
    assert "document type" in excinfo.value.detail


def test_nesting_depth_cap():
    deep = "<XMApp>" * 400 + "<XMTok>x</XMTok>" + "</XMApp>" * 400
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(deep)
    assert excinfo.value.kind is ParseErrorKind.MALFORMED_XML
    assert "nesting" in excinfo.value.detail


def test_fixture_roles_are_known(sum_function_xmath, quantum_xmath):
    for text in (sum_function_xmath, quantum_xmath):
        doc = parse_xmath(text)
        for node in doc.nodes:
            if node.attrs.role is not None:
                assert node.attrs.role in KNOWN_ROLES


def test_unlisted_role_accepted_verbatim():
    doc = parse_xmath("<XMTok role='METARELOP'>=</XMTok>")
    assert doc.root.attrs.role == "METARELOP"


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_round_trip_random_documents(seed):
    doc = random_document(seed=seed)
    serialized = serialize_xmath(doc)
    assert structurally_equal(parse_xmath(serialized).root, doc.root)
    compact = serialize_xmath(doc, pretty=False)
    assert structurally_equal(parse_xmath(compact).root, doc.root)


@given(text=st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parser_is_total(text):
    try:
        parse_xmath(text)
    except ParseError as err:
        assert err.kind in ParseErrorKind
        assert isinstance(err.detail, str)
