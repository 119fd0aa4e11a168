from __future__ import annotations

import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    EntityMode,
    SerializeOptions,
    TargetNode,
    build_parallel,
    parse_xmath,
    same_shape,
    serialize_mathml,
)
from xmathml.serializer import escape_attr, escape_text
from helpers import parse_mathml, reference_escape_attr, reference_escape_text
from treegen import random_document

UTF8 = SerializeOptions()
NUMERIC = SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS)
PRETTY = SerializeOptions(pretty=True)


def test_empty_mrow():
    out = serialize_mathml(TargetNode("mrow"))
    assert out == '<mrow xmlns="http://www.w3.org/1998/Math/MathML"/>\n'


def test_invisible_times_numeric_mode():
    node = TargetNode("mo", {"id": "m1.1"}, text="⁢")
    out = serialize_mathml(node, NUMERIC)
    assert "&#x2062;" in out
    assert "⁢" not in out


def test_utf8_mode_keeps_code_points():
    node = TargetNode("mo", text="∫")
    assert "∫" in serialize_mathml(node, UTF8)


def test_attribute_order_id_xref_then_alphabetical():
    node = TargetNode(
        "mo",
        {"stretchy": "false", "xref": "x.cmml", "fence": "true", "id": "x"},
        text="(",
    )
    out = serialize_mathml(node)
    assert out.startswith('<mo id="x" xref="x.cmml" fence="true" stretchy="false"')


def test_escaping():
    node = TargetNode("mi", {"alttext": 'a<b&"c'}, text="a<b&c>")
    out = serialize_mathml(node)
    assert "a&lt;b&amp;c&gt;" in out
    assert 'alttext="a&lt;b&amp;&quot;c"' in out
    reparsed = parse_mathml(out)
    assert reparsed.text == "a<b&c>"
    assert reparsed.attrs["alttext"] == 'a<b&"c'


def test_round_trip_fixture_both_modes(sum_function_doc):
    math = build_parallel(sum_function_doc, tex="a+F(a,b)", display="block")
    for opts in (UTF8, NUMERIC, PRETTY, SerializeOptions(pretty=True, entity_mode=EntityMode.NUMERIC_REFS)):
        text = serialize_mathml(math, opts)
        assert same_shape(parse_mathml(text), math)


def test_both_entity_modes_reparse_identically(quantum_doc):
    math = build_parallel(quantum_doc, tex="...")
    utf8_tree = parse_mathml(serialize_mathml(math, UTF8))
    numeric_tree = parse_mathml(serialize_mathml(math, NUMERIC))
    assert same_shape(utf8_tree, numeric_tree)


def test_namespace_prefix_round_trip(sum_function_doc):
    math = build_parallel(sum_function_doc)
    opts = SerializeOptions(namespace_prefix="m")
    text = serialize_mathml(math, opts)
    assert text.startswith("<m:math")
    assert 'xmlns:m="http://www.w3.org/1998/Math/MathML"' in text
    assert same_shape(parse_mathml(text), math)


def test_pretty_keeps_token_text_intact(sum_function_doc):
    math = build_parallel(sum_function_doc, tex="a+F(a,b)")
    pretty = parse_mathml(serialize_mathml(math, PRETTY))
    annotation = next(n for n in pretty.iter() if n.element == "annotation")
    assert annotation.text == "a+F(a,b)"


def test_deterministic_output(quantum_doc):
    math = build_parallel(quantum_doc, tex="...")
    assert serialize_mathml(math, PRETTY) == serialize_mathml(math, PRETTY)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_output_is_well_formed_xml(seed):
    doc = random_document(seed=seed)
    math = build_parallel(doc, tex="t")
    for opts in (UTF8, NUMERIC, PRETTY):
        text = serialize_mathml(math, opts)
        # Independent well-formedness pass through the stdlib parser.
        parsed = ET.fromstring(text)
        assert parsed.tag.endswith("math")
        assert same_shape(parse_mathml(text), math)


#: ASCII, BMP and astral code points, plus every character with an escape.
_ESCAPE_INPUTS = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=127),
        st.characters(),
        st.sampled_from('&<>"\n\t\r\U0001d49c\u2062'),
    )
)


@given(value=_ESCAPE_INPUTS)
@settings(max_examples=400, deadline=None)
def test_escape_matches_reference(value):
    for mode in EntityMode:
        # The one intended difference: text keeps no raw carriage return.
        expected_text = reference_escape_text(value, mode).replace("\r", "&#13;")
        assert escape_text(value, mode) == expected_text
        assert escape_attr(value, mode) == reference_escape_attr(value, mode)


def test_carriage_return_survives_reparse():
    doc = parse_xmath("<XMApp><XMTok meaning='plus'>+</XMTok>"
                      "<XMTok>a&#13;b</XMTok><XMTok>c</XMTok></XMApp>")
    math = build_parallel(doc, tex="a\r+c")
    assert any(node.text == "a\rb" for node in math.iter())
    for opts in (UTF8, NUMERIC, PRETTY):
        text = serialize_mathml(math, opts)
        assert "\r" not in text
        assert same_shape(parse_mathml(text), math)
