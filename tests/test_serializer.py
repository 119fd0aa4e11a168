from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import pytest
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
from xmathml import serializer
from xmathml.serializer import escape_attr, escape_text
from helpers import (
    bra_ket_chain,
    parse_mathml,
    reference_encode,
    reference_escape_attr,
    reference_escape_text,
    same_shape,
    sum_of,
    traced_peak,
)
from conftest import fixture_text
from sharegen import shared_documents
from test_shared_subtrees import SHARED_COUNT, SHARED_OUTPUT_SHA256, shared_output_digest
from treegen import random_document

UTF8 = SerializeOptions()
NUMERIC = SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS)
PRETTY = SerializeOptions(pretty=True)


def test_options_keep_their_keywords():
    mode = EntityMode.NUMERIC_REFS
    opts = SerializeOptions(pretty=True, entity_mode=mode, namespace_prefix="m")
    assert (opts.pretty, opts.entity_mode, opts.namespace_prefix) == (True, mode, "m")
    assert SerializeOptions(True).pretty and UTF8.entity_mode is EntityMode.UTF8
    assert (UTF8.pretty, UTF8.namespace_prefix) == (False, None)


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


def test_attribute_order_ignores_insertion_order():
    """Two nodes with the same attribute names, inserted in different
    orders, are written alike, whichever comes first."""
    names = ("class", "id", "mathvariant", "xref", "cd")
    for order in (names, names[::-1], names[2:] + names[:2]):
        node = TargetNode("mi", {name: name + "-value" for name in order}, text="x")
        out = serialize_mathml(node)
        assert out.startswith(
            '<mi id="id-value" xref="xref-value" cd="cd-value" '
            'class="class-value" mathvariant="mathvariant-value"'
        )


def test_attribute_value_escaped_per_mode():
    """A value escaped in one mode is not reused in the other."""
    node = TargetNode("mi", {"id": "v", "class": 'a"\u03b1'}, text="x")
    assert 'class="a&quot;&#x3B1;"' in serialize_mathml(node, NUMERIC)
    assert 'class="a&quot;\u03b1"' in serialize_mathml(node, UTF8)
    assert 'class="a&quot;&#x3B1;"' in serialize_mathml(node, NUMERIC)


def test_attribute_memos_stay_bounded():
    """After more distinct attribute names and values than the memos'
    cap, each memo holds no more than the cap, and every value is still
    written right."""
    count = serializer._MEMO_CAP + 10
    leaves = [
        TargetNode("mi", {"id": f"m{i}", f"a{i}": f"v{i}&"}, text="x")
        for i in range(count)
    ]
    for opts in (UTF8, NUMERIC):
        out = serialize_mathml(TargetNode("mrow", {}, leaves), opts)
        assert out.count('&amp;"') == count and f'a{count - 1}="v{count - 1}&amp;"' in out
    memos = (serializer._ORDERS, *serializer._ESCAPED_VALUES.values())
    assert all(0 < len(memo) <= serializer._MEMO_CAP for memo in memos)


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
_ESCAPED_ID_FORMULA = fixture_text("escaped_ids.xmath.xml")

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


def _fast_paths_digest(trees: list[TargetNode]) -> str:
    digest = hashlib.sha256()
    for tree in trees:
        for opts in _FAST_PATH_MODES:
            digest.update(serialize_mathml(tree, opts).encode("utf-8") + b"\0")
    return digest.hexdigest()


def test_fast_paths_pinned():
    """Escaped ids and xrefs, id/xref-only heads and repeated texts are
    written byte-identically to the recorded output in every mode, and the
    ids come back intact on re-parse."""
    trees = _fast_path_trees()
    assert any("\r" in node.attrs.get("xref", "") for node in trees[1].iter())
    for tree in trees:
        for opts in _FAST_PATH_MODES:
            reparsed = read_xml_tree(serialize_mathml(tree, opts))
            assert _id_pairs(reparsed) == _id_pairs(tree)
            assert same_shape(reparsed, tree)
    assert _fast_paths_digest(trees) == FAST_PATHS_DIGEST


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


def _one_value_tree(index: int, attr: str, value: str) -> TargetNode:
    """Clean ids and xrefs, on heads of every kind, but for ``attr`` of
    the ``index``-th node, which is ``value``."""
    leaves = [TargetNode("mi", {"id": f"m{i}", "xref": f"m{i}.cmml"}, text="x") for i in range(3)]
    leaves.append(TargetNode("mo", {"xref": "o.cmml", "stretchy": "false"}, text="+"))
    tree = TargetNode("math", {"id": "m"}, [TargetNode("mrow", {"id": "r", "xref": "r.cmml"}, leaves)])
    list(tree.iter())[index].attrs[attr] = value
    return tree


def test_lone_escaped_id_or_xref():
    """A tree whose only escape is in one id or one xref is written as with
    escape_attr on each value: the whole-tree test sees ids and xrefs, and
    non-ASCII ones in numeric mode."""
    slots = [
        (index, attr)
        for index, node in enumerate(_one_value_tree(0, "id", "m").iter())
        for attr in ("id", "xref")
        if attr in node.attrs
    ]
    assert len(slots) == 10
    for index, attr in slots:
        for special in '&<>"\n\t\rψ\U0001d49c':
            value = f"a{special}b"
            tree = _one_value_tree(index, attr, value)
            for opts in _FAST_PATH_MODES:
                text = serialize_mathml(tree, opts)
                # A value that needs no escape stands in for it.
                clean = serialize_mathml(_one_value_tree(index, attr, "lone"), opts)
                escaped = escape_attr(value, opts.entity_mode)
                assert text == clean.replace('"lone"', f'"{escaped}"')
                assert _id_pairs(read_xml_tree(text)) == _id_pairs(tree)


#: Three bra-ket chains of depth 3, whose numeric output spans several
#: chunks; tests/fixtures/chunked_output.xmath.xml holds their sum.
_CHAIN_TERMS = tuple(bra_ket_chain(f"p{i}", 3) for i in (1, 2, 3))


def _chunked_trees() -> list[TargetNode]:
    """The sum of the chains, and the same with a term whose ids need an
    escape, so that its numeric output is written twice."""
    texts = (sum_of(*_CHAIN_TERMS), sum_of(*_CHAIN_TERMS, _ESCAPED_ID_FORMULA))
    return [build_parallel(parse_xmath(text)) for text in texts]


def test_chunked_fixture_is_three_chains():
    assert fixture_text("chunked_output.xmath.xml") == sum_of(*_CHAIN_TERMS) + "\n"


@pytest.mark.parametrize("chunk_parts", [1, 2, 3])
def test_chunk_size_keeps_pinned_output(monkeypatch, chunk_parts):
    """Numeric output joined in chunks of any size is the recorded one."""
    monkeypatch.setattr(serializer, "_CHUNK_PARTS", chunk_parts)
    assert _fast_paths_digest(_fast_path_trees()) == FAST_PATHS_DIGEST
    assert shared_output_digest(shared_documents(SHARED_COUNT))[0] == SHARED_OUTPUT_SHA256


def test_numeric_chunks_encode_utf8_output():
    """Over several chunks, and written again when its ids need an escape,
    numeric output is the UTF-8 output with each non-ASCII character
    encoded, in every layout."""
    trees = _chunked_trees()
    assert any('"' in node.attrs.get("id", "") for node in trees[1].iter())
    for tree in trees:
        tags = sum(2 if node.children else 1 for node in tree.iter())
        assert tags >= 10 * serializer._CHUNK_PARTS
        for layout in ({}, {"pretty": True}, {"namespace_prefix": "m"}):
            utf8 = serialize_mathml(tree, SerializeOptions(**layout))
            numeric = serialize_mathml(
                tree, SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS, **layout))
            assert numeric == reference_encode(utf8, EntityMode.NUMERIC_REFS)


def test_numeric_output_peak_is_bounded():
    """Joined in chunks as it is written, numeric output costs at most
    2.5 times its length at the serializer's peak: the chunks, then the
    text they are joined into."""
    for tree in _chunked_trees():
        length = len(serialize_mathml(tree, NUMERIC))
        assert traced_peak(serialize_mathml, tree, NUMERIC) <= 2.5 * length
