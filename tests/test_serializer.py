from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    EntityMode,
    SerializeOptions,
    TargetNode,
    build_parallel,
    parse_xmath,
    read_xml_tree,
    serialize_mathml,
)
from xmathml.serializer import escape_attr, escape_text
from helpers import (
    bra_ket_chain,
    parse_mathml,
    reference_escape_attr,
    reference_escape_text,
    same_shape,
    sum_of,
)
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


#: XMath whose input ids (and so output ids and xrefs, suffixed or not)
#: hold every character with an attribute escape, plus non-ASCII ones;
#: the first dotted id makes the wrapper ids non-ASCII too.
_ESCAPED_ID_FORMULA = (
    "<XMDual xml:id='ψ.1'><XMApp><XMTok meaning='times'/>"
    "<XMRef idref='a&amp;b'/><XMRef idref='c&lt;d&gt;'/><XMRef idref='q&quot;'/>"
    "<XMRef idref='t&#9;n&#10;r&#13;'/><XMRef idref='&#x1D49C;ψ'/></XMApp>"
    "<XMWrap><XMTok xml:id='a&amp;b'>a</XMTok><XMRef idref='a&amp;b'/>"
    "<XMTok xml:id='c&lt;d&gt;' role='MULOP'>&lt;</XMTok><XMRef idref='c&lt;d&gt;'/>"
    "<XMTok xml:id='q&quot;'>q</XMTok><XMTok xml:id='t&#9;n&#10;r&#13;'>&amp;&#13;</XMTok>"
    "<XMRef idref='t&#9;n&#10;r&#13;'/><XMTok xml:id='&#x1D49C;ψ'>&#x1D49C;</XMTok>"
    "<XMRef idref='&#x1D49C;ψ'/><XMRef idref='&#x1D49C;ψ'/></XMWrap></XMDual>"
)

#: Shared ref chains whose copies repeat the same non-ASCII and escaped texts.
_SHARED_TEXT_FORMULAS = (
    sum_of(bra_ket_chain("p1", 3), bra_ket_chain("p2", 2, ("χ", "V", "ξ"))),
    sum_of(bra_ket_chain("p1", 2, ("&#x1D49C;", "L", "&lt;&amp;&#13;>"))),
)


def _hand_built_tree() -> TargetNode:
    """Every id/xref combination beside other attributes, and repeated texts."""
    return TargetNode("math", {"id": "w&1", "class": "ltx_Math"}, [
        TargetNode("mi", {"id": 'a"b', "xref": "c<d"}, text="ψ"),
        TargetNode("mo", {"id": "t\tn\nr\r", "xref": "ψ\U0001d49c", "stretchy": "t&ue"},
                   text="&<>\r"),
        TargetNode("mi", {"xref": "only>"}, text="ψ"),
        TargetNode("mi", {}, text="&<>\r"),
        TargetNode("mi", {"id": "plain", "xref": "plain.cmml"}, text="\U0001d49c"),
        TargetNode("mrow", {"id": "ψ"}, [TargetNode("mn", {"xref": "e"}, text="42")]),
        TargetNode("mtext", {"class": "c\n", "id": "x"}, text=""),
        TargetNode("mi", {"mathvariant": "normal"}, text="ψ"),
    ])


#: Plain, pretty and prefixed output, each in both entity modes.
_FAST_PATH_MODES = tuple(
    SerializeOptions(entity_mode=mode, **layout)
    for mode in EntityMode
    for layout in ({}, {"pretty": True}, {"namespace_prefix": "m"})
)


def _id_pairs(root: TargetNode) -> list[tuple]:
    return [(node.attrs.get("id"), node.attrs.get("xref")) for node in root.iter()]


#: SHA-256 over the outputs of test_fast_paths_pinned, recorded at the
#: commit before the serializer's per-attribute tests and text memo.
FAST_PATHS_DIGEST = (
    "1447476d1036e72e0af58e5e3d4455da33a84c5f349ff9c97eb953df616c0b68"
)


def _fast_path_trees() -> list[TargetNode]:
    trees = [_hand_built_tree()]
    trees += [
        build_parallel(parse_xmath(text), tex='t&<"\r')
        for text in (_ESCAPED_ID_FORMULA, *_SHARED_TEXT_FORMULAS)
    ]
    return trees


def test_fast_paths_pinned():
    """Escaped ids and xrefs, id/xref-only heads and repeated texts are
    written byte-identically to the recorded output in every mode, and the
    ids come back intact on re-parse."""
    trees = _fast_path_trees()
    assert any("\r" in node.attrs.get("xref", "") for node in trees[1].iter())
    digest = hashlib.sha256()
    for tree in trees:
        for opts in _FAST_PATH_MODES:
            text = serialize_mathml(tree, opts)
            digest.update(text.encode("utf-8") + b"\0")
            reparsed = read_xml_tree(text)
            assert _id_pairs(reparsed) == _id_pairs(tree)
            assert same_shape(reparsed, tree)
    assert digest.hexdigest() == FAST_PATHS_DIGEST


def _expected_tree(elem: ET.Element) -> tuple:
    """What read_xml_tree must give for an ElementTree element: the local
    name, attributes without namespace declarations or the ``xml:``
    prefix, and text on leaves only."""
    attrs = {name.rpartition("}")[2]: value for name, value in elem.attrib.items()}
    children = [_expected_tree(child) for child in elem]
    return (elem.tag.rpartition("}")[2], attrs, None if children else elem.text or "", children)


def _read_tree(node) -> tuple:
    assert isinstance(node, TargetNode)
    return (node.element, node.attrs, node.text, [_read_tree(child) for child in node.children])


def test_reader_builds_local_target_trees():
    """read_xml_tree gives a TargetNode tree with local names, no xmlns
    attributes, ``xml:`` prefixes stripped and text on leaves only, in
    every serialize mode, prefixed output included."""
    trees, prefixed = _fast_path_trees(), 0
    for tree in trees:
        for opts in _FAST_PATH_MODES:
            text = serialize_mathml(tree, opts)
            prefixed += text.startswith("<m:math")
            for text in (text, text.replace("math ", 'math xml:lang="en" ', 1)):
                assert _read_tree(read_xml_tree(text)) == _expected_tree(ET.fromstring(text))
    assert prefixed == 2 * len(trees)
