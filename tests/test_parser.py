from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    NodeKind,
    ParseError,
    ParseErrorKind,
    SemanticAttrs,
    build_parallel,
    parse_xmath,
    read_xml_tree,
    serialize_mathml,
)
from conftest import fixture_text
from helpers import KNOWN_ROLES, serialize_xmath, structurally_equal, traced_peak
from xmathml.parser import MATHML_NESTING_DEPTH, MAX_NESTING_DEPTH
from treegen import make_corpus, random_document


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


def test_unknown_attributes_are_ignored():
    doc = parse_xmath('<XMTok color="red" role="ID" stretchy="maybe">a</XMTok>')
    assert doc.root.attrs == SemanticAttrs(role="ID")
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


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            '<!DOCTYPE math [<!ENTITY a "b">]>\n<math>&a;</math>',
            (1, 16, "document type declarations are not supported"),
        ),
        (
            "<mrow>" * (MATHML_NESTING_DEPTH + 1)
            + "</mrow>" * (MATHML_NESTING_DEPTH + 1),
            (1, 1219, f"element nesting deeper than {MATHML_NESTING_DEPTH}"),
        ),
        (
            "<math>\n" + "<mrow>" * MATHML_NESTING_DEPTH,
            (2, 1213, f"element nesting deeper than {MATHML_NESTING_DEPTH}"),
        ),
        ('<math id="m1"><semantics><mi>a</mi>', (1, 36, "no element found")),
        ("<math><mi>a</mo></math>", (1, 14, "mismatched tag")),
        ("", (1, 1, "no element found")),
        ("  \n", (2, 1, "no element found")),
        ("<math><mo>&Foo;</mo></math>", (1, 11, "undefined entity")),
        # Columns after a named entity count the entity as written.
        (
            "<math><mo>&InvisibleTimes;</mo><mi>&Foo;</mi></math>",
            (1, 36, "undefined entity"),
        ),
        (
            "<math><mo>&InvisibleTimes;</mo>\n<mi>&Foo;</mi></math>",
            (2, 5, "undefined entity"),
        ),
    ],
)
def test_read_xml_tree_refusals(text, expected):
    """The MathML re-reader's refusals keep their kind, position and detail."""
    with pytest.raises(ParseError) as excinfo:
        read_xml_tree(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (
        ParseErrorKind.MALFORMED_XML,
        *expected,
    )


def test_read_xml_tree_accepts_depth_cap_and_named_entities():
    at_cap = "<mrow>" * MAX_NESTING_DEPTH + "</mrow>" * MAX_NESTING_DEPTH
    assert read_xml_tree(at_cap).element == "mrow"
    root = read_xml_tree("<math>\n<mo>&InvisibleTimes;</mo></math>")
    mo = root.children[0]
    assert (mo.element, mo.text) == ("mo", "\u2062")


#: The named entities the reader resolved before it took the HTML5 table,
#: each with its character.
EARLIER_ENTITIES = {
    "ApplyFunction": "\u2061", "af": "\u2061", "InvisibleTimes": "\u2062",
    "it": "\u2062", "InvisibleComma": "\u2063", "ic": "\u2063", "int": "\u222b",
    "sum": "\u2211", "prod": "\u220f", "times": "\u00d7", "minus": "\u2212",
    "plusmn": "\u00b1", "dd": "\u2146", "ee": "\u2147", "ii": "\u2148",
    "HilbertSpace": "\u210b", "LeftAngleBracket": "\u27e8",
    "RightAngleBracket": "\u27e9", "langle": "\u27e8", "rangle": "\u27e9",
    "VerticalBar": "\u2223", "nbsp": "\u00a0", "Alpha": "\u0391", "Beta": "\u0392",
    "Gamma": "\u0393", "Delta": "\u0394", "Epsilon": "\u0395", "Zeta": "\u0396",
    "Eta": "\u0397", "Theta": "\u0398", "Iota": "\u0399", "Kappa": "\u039a",
    "Lambda": "\u039b", "Mu": "\u039c", "Nu": "\u039d", "Xi": "\u039e",
    "Omicron": "\u039f", "Pi": "\u03a0", "Rho": "\u03a1", "Sigma": "\u03a3",
    "Tau": "\u03a4", "Upsilon": "\u03a5", "Phi": "\u03a6", "Chi": "\u03a7",
    "Psi": "\u03a8", "Omega": "\u03a9", "alpha": "\u03b1", "beta": "\u03b2",
    "gamma": "\u03b3", "delta": "\u03b4", "epsilon": "\u03b5", "zeta": "\u03b6",
    "eta": "\u03b7", "theta": "\u03b8", "iota": "\u03b9", "kappa": "\u03ba",
    "lambda": "\u03bb", "mu": "\u03bc", "nu": "\u03bd", "xi": "\u03be",
    "omicron": "\u03bf", "pi": "\u03c0", "rho": "\u03c1", "sigmaf": "\u03c2",
    "sigma": "\u03c3", "tau": "\u03c4", "upsilon": "\u03c5", "phi": "\u03c6",
    "chi": "\u03c7", "psi": "\u03c8", "omega": "\u03c9",
}  # fmt: skip


def test_earlier_entities_read_the_same():
    assert len(EARLIER_ENTITIES) == 71
    for name, char in EARLIER_ENTITIES.items():
        mi = read_xml_tree(f'<mi a="&{name};">&{name};</mi>')
        assert (mi.text, mi.attrs["a"]) == (char, char), name
        tok = parse_xmath(f'<XMTok meaning="&{name};">&{name};</XMTok>').root
        assert (tok.text, tok.attrs.meaning) == (char, char), name


def test_standard_entities_are_resolved():
    root = read_xml_tree('<math><mo>&rarr;</mo><mi a="&PlusMinus;">x</mi></math>')
    mo, mi = root.children
    assert (mo.text, mi.attrs["a"]) == ("\u2192", "\u00b1")
    assert read_xml_tree("<mo>]]&gt;</mo>").text == "]]>"
    # Columns after a named entity count the entity as written.
    text = '<math><mo>&rarr;</mo><mi a="&PlusMinus;">&Foo;</mi></math>'
    with pytest.raises(ParseError) as excinfo:
        read_xml_tree(text)
    err = excinfo.value
    assert (err.line, err.col, err.detail) == (1, 42, "undefined entity")
    assert (err.line, err.col) == _position(text, "&Foo;")


@pytest.mark.parametrize(
    "read, text_of",
    [(read_xml_tree, lambda raw: raw.text), (parse_xmath, lambda doc: doc.root.text)],
    ids=["read_xml_tree", "parse_xmath"],
)
def test_cdata_keeps_entities_as_written(read, text_of):
    tok = read("<XMTok><![CDATA[&alpha;]]>&alpha;<![CDATA[&rsqb;&rsqb;>]]></XMTok>")
    assert text_of(tok) == "&alpha;α&rsqb;&rsqb;>"
    tok = read("<XMTok><!-- <![CDATA[ -->&beta;<!-- ]]> --></XMTok>")
    assert text_of(tok) == "β"
    # A fault after a CDATA section and an entity on the same line is
    # located in the text as written.
    for text in (
        "<XMTok><![CDATA[&alpha;]]>&beta;&Foo;</XMTok>",
        "<XMTok><![CDATA[a\n&alpha;&alpha;]]>&beta;&Foo;</XMTok>",
    ):
        with pytest.raises(ParseError) as excinfo:
            read(text)
        err = excinfo.value
        assert (err.line, err.col, err.detail) == (
            *_position(text, "&Foo;"),
            "undefined entity",
        )


@pytest.mark.parametrize(
    "text, expected",
    [
        (f"<math><mi>&alpha;</mi><mo>&{name};</mo></math>", (1, 27))
        for name in ("LT", "nvlt", "Tab", "NewLine", "NotEqualTilde")
    ]
    + [
        ('<math><mi>&alpha;</mi><mo a="&QUOT;">x</mo></math>', (1, 23)),
        ('<math>\n<mi a="&alpha;">&alpha;</mi><mo c="&QUOT;">x</mo></math>', (2, 29)),
    ],
)
@pytest.mark.parametrize("read", [read_xml_tree, parse_xmath])
def test_unsafe_entities_stay_undefined(read, text, expected):
    """Values that are markup, a tab, a newline or two characters are not
    defined; each name is refused where it was before the HTML5 table."""
    with pytest.raises(ParseError) as excinfo:
        read(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (
        ParseErrorKind.MALFORMED_XML,
        *expected,
        "undefined entity",
    )


_STANDALONE = '<?xml version="1.0" standalone="{}"?>\n'


@pytest.mark.parametrize(
    "text, expected",
    [
        # Every name the text uses is declared: an unknown one beside a
        # known one is refused where it is used, never skipped.
        ("<XMTok>&alpha;&foo_bar;</XMTok>", (1, 15, "undefined entity")),
        ("<XMTok meaning='a&foo_bar;'>&alpha;</XMTok>", (1, 1, "undefined entity")),
        # Positions are expat's own, in the text as written.
        ("&alpha;<XMTok/>", (1, 1, "not well-formed (invalid token)")),
        ("<XMTok meaning='&x&alpha;'>x</XMTok>", (1, 19, "not well-formed (invalid token)")),
        # A standalone document reads no declarations (XML 1.0, WFC:
        # Entity Declared), so a named character is undefined there.
        (_STANDALONE.format("yes") + "<XMTok>&alpha;</XMTok>", (2, 8, "undefined entity")),
        (
            _STANDALONE.format("yes") + "<XMTok meaning='&alpha;'>a</XMTok>",
            (2, 1, "undefined entity"),
        ),
        # A used string that is no XML name fails its own declaration, and
        # expat refuses its reference; a known name beside it still reads.
        ("<XMTok>&1x;</XMTok>", (1, 9, "not well-formed (invalid token)")),
        ('<XMTok meaning="&1x;">a</XMTok>', (1, 18, "not well-formed (invalid token)")),
        ("<XMTok>&alpha;&1x;</XMTok>", (1, 16, "not well-formed (invalid token)")),
        ("<XMTok>&1x;&alpha;</XMTok>", (1, 9, "not well-formed (invalid token)")),
    ],
)
@pytest.mark.parametrize("read", [read_xml_tree, parse_xmath])
def test_declared_entities_refusals(read, text, expected):
    with pytest.raises(ParseError) as excinfo:
        read(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (
        ParseErrorKind.MALFORMED_XML,
        *expected,
    )


@pytest.mark.parametrize(
    "read, text_of",
    [(read_xml_tree, lambda raw: raw.text), (parse_xmath, lambda doc: doc.root.text)],
    ids=["read_xml_tree", "parse_xmath"],
)
def test_standalone_documents_read(read, text_of):
    tok = read(_STANDALONE.format("no") + "<XMTok>&alpha;</XMTok>")
    assert text_of(tok) == "α"
    tok = read(_STANDALONE.format("yes") + "<XMTok>&amp;&#945;</XMTok>")
    assert text_of(tok) == "&α"


def _position(text: str, marker: str, occurrence: int = 0) -> tuple[int, int]:
    """1-based line and column of a marker in the text as written."""
    at = -1
    for _ in range(occurrence + 1):
        at = text.index(marker, at + 1)
    lines = re.split(r"\r\n?|\n", text[:at])
    return len(lines), len(lines[-1]) + 1


@pytest.mark.parametrize(
    "text, marker, kind, detail",
    [
        (
            "<XMApp><XMTok>&InvisibleTimes;</XMTok><Bogus/></XMApp>",
            "<Bogus",
            ParseErrorKind.UNKNOWN_ELEMENT,
            "unknown element 'Bogus'",
        ),
        (
            # Text is reported where it starts.
            "<XMApp><XMTok>&alpha;&beta;</XMTok>junk</XMApp>",
            "junk",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMApp",
        ),
        (
            # ... at its first non-space character, past line breaks,
            # references and named entities.
            "<XMDual><XMTok/>\n y<XMTok/></XMDual>",
            "y",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMDual",
        ),
        (
            "<XMApp>\r\n \t&#32;&#10; &alpha; \t<XMTok/></XMApp>",
            "&alpha;",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMApp",
        ),
        (
            # Only XML white space (space, tab, CR, LF) may stand between
            # elements: a no-break or em space is text.
            "<XMApp><XMTok meaning='plus'/>&nbsp;<XMTok>a</XMTok>&#x2003;<XMTok>b</XMTok></XMApp>",
            "&nbsp;",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMApp",
        ),
        (
            "<XMApp><XMTok meaning='plus'/>\n \t&nbsp;<XMTok>a</XMTok></XMApp>",
            "&nbsp;",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMApp",
        ),
        (
            "<XMApp><XMTok meaning='plus'/> <XMTok>a</XMTok>&#x2003;<XMTok>b</XMTok></XMApp>",
            "&#x2003;",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMApp",
        ),
        (
            '<XMApp><XMTok xml:id="a">&sum;</XMTok><XMTok xml:id="a"/></XMApp>',
            '<XMTok xml:id="a"/>',
            ParseErrorKind.DUPLICATE_ID,
            "duplicate xml:id 'a'",
        ),
        (
            "<XMApp>\r\n<XMTok>&ii;</XMTok><XMTok>&it;</XMTok><XMFoo/></XMApp>",
            "<XMFoo",
            ParseErrorKind.UNKNOWN_ELEMENT,
            "unknown element 'XMFoo'",
        ),
        (
            "<XMApp><XMTok>&int;</XMTok><XMTok>&Foo;</XMTok></XMApp>",
            "&Foo;",
            ParseErrorKind.MALFORMED_XML,
            "undefined entity",
        ),
        (
            "<XMApp><XMTok>&langle;</XMTok><XMTok>x</XMWrap>",
            "XMWrap>",
            ParseErrorKind.MALFORMED_XML,
            "mismatched tag",
        ),
        (
            "<XMApp><XMTok>&psi;</XMTok><XMDual><XMTok/><XMTok/><XMTok/></XMDual></XMApp>",
            "<XMDual",
            ParseErrorKind.DUAL_ARITY,
            "XMDual must have exactly 2 children, found 3",
        ),
        (
            # Inside the wrappers, whose attributes hold entities.
            "<Math alttext='&alpha;'><XMath><XMTok>&beta;</XMTok>\n&gamma; junk</XMath></Math>",
            "&gamma;",
            ParseErrorKind.MALFORMED_XML,
            "text content not allowed inside XMath",
        ),
        (
            "<Math alttext='&alpha;&beta;'><XMath><XMTok>&gamma;</XMTok><XMTok/></XMath></Math>",
            "<XMath",
            ParseErrorKind.MALFORMED_XML,
            "XMath wrapper must contain exactly one element",
        ),
        (
            "<Math>\n<XMath><XMApp><XMTok>&alpha;</XMTok><Bogus/></XMApp></XMath></Math>",
            "<Bogus",
            ParseErrorKind.UNKNOWN_ELEMENT,
            "unknown element 'Bogus'",
        ),
    ],
)
def test_fault_positions_after_named_entities(text, marker, kind, detail):
    """A fault after a named entity is located in the text as written."""
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (kind, *_position(text, marker), detail)


def test_node_positions_after_named_entities():
    body = (
        "<XMApp><XMTok>&InvisibleTimes;</XMTok><XMTok>&alpha;&beta;</XMTok>\r\n"
        "<XMTok>&ii;</XMTok><XMTok/><XMTok>&Foo0;</XMTok></XMApp>"
    )
    # Bare, and in wrappers whose attributes hold entities on the line
    # before the root and on the root's first line.
    wrapped = "<Math alttext='&alpha;+&beta;'>\n <XMath xml:lang='&eacute;'>{}</XMath>\n</Math>"
    for text in (body, wrapped.format(body)):
        with pytest.raises(ParseError):
            parse_xmath(text)  # &Foo0; is no entity the reader knows
        doc = parse_xmath(text.replace("&Foo0;", "&amp;"))
        expected = [_position(text, "<XMApp")]
        expected += [_position(text, "<XMTok", k) for k in range(5)]
        assert [(node.line, node.col) for node in doc.nodes] == expected
        assert [node.text for node in doc.nodes[1:]] == ["\u2062", "αβ", "ⅈ", "", "&"]


# Longer than pyexpat's 8,192-character text buffer.
_PAST_BUFFER = 9000
_TEXT_IN_APP = "text content not allowed inside XMApp"


@pytest.mark.parametrize(
    "text, expected",
    [
        # A white-space run past the buffer before the text, on one line,
        # over many lines, and past the buffer between two line breaks.
        ("<XMApp><XMTok/>" + " " * _PAST_BUFFER + "x<XMTok/></XMApp>", (1, 9016)),
        ("<XMApp><XMTok/>" + "  \n" * 3000 + "   x<XMTok/></XMApp>", (3001, 4)),
        ("<XMApp><XMTok/>\n" + " " * _PAST_BUFFER + "\n\t y</XMApp>", (3, 3)),
        # A token text past the buffer, then text; text past the buffer.
        ("<XMApp><XMTok>" + "a" * _PAST_BUFFER + "</XMTok> junk</XMApp>", (1, 9024)),
        ("<XMApp>" + "x" * _PAST_BUFFER + "<XMTok/></XMApp>", (1, 8)),
        ("<XMApp>\n" + " " * 100 + "y" * _PAST_BUFFER + "<XMTok/></XMApp>", (2, 101)),
        # Text split by a comment or a processing instruction.
        ("<XMApp><XMTok/> <!-- c --> \n y<XMTok/></XMApp>", (2, 2)),
        ("<XMApp><XMTok/>\n a<!-- c -->b<XMTok/></XMApp>", (2, 2)),
        ("<XMApp><XMTok/>\n <?pi x?> z</XMApp>", (2, 11)),
        # Two CDATA sections.
        ("<XMApp><XMTok/><![CDATA[ ]]><![CDATA[\n x]]></XMApp>", (2, 2)),
        ("<XMApp><![CDATA[ q ]]><![CDATA[ r]]><XMTok/></XMApp>", (1, 18)),
    ],
)
def test_text_fault_positions_across_buffer_splits(text, expected):
    """Text is located where it starts, however expat's buffer splits it."""
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (
        ParseErrorKind.MALFORMED_XML,
        *expected,
        _TEXT_IN_APP,
    )


@pytest.mark.parametrize(
    "text, expected",
    [
        ("<XMApp> x <XMTok></XMApp>", (1, 20, "mismatched tag")),
        (
            "<XMApp><XMTok/>\n stray\n<XMTok>a</XMTok>&bogus;</XMApp>",
            (3, 17, "undefined entity"),
        ),
    ],
)
def test_reader_fault_after_text_fault_wins(text, expected):
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == (ParseErrorKind.MALFORMED_XML, *expected)


def test_long_token_text_kept_whole():
    text = "x" * _PAST_BUFFER + "\n<!-- c -->" + " " * _PAST_BUFFER + "<![CDATA[&]]>y"
    doc = parse_xmath(f"<XMApp><XMTok>{text}</XMTok></XMApp>")
    assert doc.nodes[1].text == text.replace("<!-- c -->", "").replace("<![CDATA[&]]>", "&")


def test_text_buffer_sized_to_the_input():
    """A short input reads text through a buffer no longer than itself,
    not pyexpat's default 8,192 bytes, and a run longer than that buffer,
    in UTF-8 bytes, still arrives whole."""
    text = "<XMTok>x</XMTok>"
    mathml = serialize_mathml(build_parallel(parse_xmath(text)))
    assert traced_peak(parse_xmath, text) < 14_000
    assert traced_peak(read_xml_tree, mathml) < 18_000
    wide = "\U0001d49c" * 40
    assert parse_xmath(f"<XMTok>{wide}</XMTok>").root.text == wide
    assert read_xml_tree(f"<mi>{wide}</mi>").text == wide


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


# -- rejection precedence ----------------------------------------------------

_TAG_END = re.compile(r">")
_SELF_CLOSED = re.compile(r"<(XM\w+)([^<>]*)/>")
_DUAL_START = re.compile(r"<XMDual[^<>]*>")
_REF = re.compile(r"<XMRef([^<>]*)/>")
_IDREF = re.compile(r' idref="[^"]*"')
_XML_ID = re.compile(r'xml:id="([^"]*)"')


def _insert(rng, text, snippet):
    gaps = [m.end() for m in _TAG_END.finditer(text)][:-1] or [0]
    at = rng.choice(gaps)
    return text[:at] + snippet + text[at:]


def _replace_one(rng, text, pattern, make):
    matches = list(pattern.finditer(text))
    if not matches:
        return text
    m = rng.choice(matches)
    return text[: m.start()] + make(m) + text[m.end() :]


def _wrap(rng, text):
    return rng.choice(
        [
            "<Math>{}</Math>",
            "<Math><XMath>{}</XMath></Math>",
            "<Math>junk{}</Math>",
            "<Math>{}<XMTok/></Math>",
            "<Math><XMTok/>{}</Math>",
            "<Math><XMath>{}</XMath>x</Math>",
            "<XMath><Math>{}</Math></XMath>",
            "<Math><XMath>{}</XMath><XMath/></Math>",
            "<Math></Math>{}",
        ]
    ).format(text)


def _mutate(rng, text):
    """Apply one seeded fault to XMath text; the result may still be valid."""
    ids = _XML_ID.findall(text)
    choice = rng.randrange(15)
    if choice == 0:
        return _insert(rng, text, "junk")
    if choice == 1:
        return _insert(rng, text, "<XMFoo/>")
    if choice == 2:
        return _insert(rng, text, "<XMTok/>")
    if choice == 3:
        return _insert(rng, text, "<XMRef/>")
    if choice == 4:
        return _insert(rng, text, '<XMRef idref="nope"/>')
    if choice == 5:
        dup = rng.choice(ids) if ids else "m1"
        return _insert(rng, text, f'<XMTok xml:id="{dup}">d</XMTok>')
    if choice == 6:
        return _replace_one(
            rng, text, _SELF_CLOSED, lambda m: f"<XMFoo{m.group(2)}/>"
        )
    if choice == 7:
        bodies = ["junk", "<XMTok/>", "<XMFoo/>", " <XMTok/>x"]
        return _replace_one(
            rng, text, _REF, lambda m: f"<XMRef{m.group(1)}>{rng.choice(bodies)}</XMRef>"
        )
    if choice == 8:
        return _replace_one(rng, text, _IDREF, lambda m: "")
    if choice == 9:
        return _replace_one(rng, text, _IDREF, lambda m: ' idref="nope"')
    if choice == 10:
        return _replace_one(
            rng, text, _XML_ID, lambda m: f'xml:id="{rng.choice(ids)}"'
        )
    if choice == 11:
        return _replace_one(
            rng, text, _DUAL_START, lambda m: m.group(0) + "<XMTok>e</XMTok>"
        )
    if choice == 12:
        return text[: rng.randrange(len(text) + 1)]
    if choice == 13:
        return _wrap(rng, text)
    nested = ["<XMTok>x<XMFoo/></XMTok>", "<XMApp>y</XMApp>", "<XMDual/>"]
    return _insert(rng, text, rng.choice(nested))


def _outcome(text: str) -> str:
    try:
        parse_xmath(text)
    except ParseError as err:
        return f"{err.kind.value}|{err.line}|{err.col}|{err.detail}"
    except Exception as err:  # pinned too: a crash must not creep in
        return f"crash|{type(err).__name__}"
    return "ok"


def _rejection_corpus() -> list[str]:
    """Both fixtures and 300 treegen documents, each as is, with 12 single
    seeded faults and with 6 stacks of 2-4 faults; plus reader faults."""
    rng = random.Random(20261018)
    sources = [
        fixture_text("sum_function.xmath.xml"),
        fixture_text("quantum_defint.xmath.xml"),
    ]
    for i, doc in enumerate(make_corpus(300, seed=4242)):
        sources.append(serialize_xmath(doc, pretty=bool(i % 2)))
    texts = []
    for source in sources:
        texts.append(source)
        for _ in range(12):
            texts.append(_mutate(rng, source))
        for _ in range(6):
            text = source
            for _ in range(rng.randint(2, 4)):
                text = _mutate(rng, text)
            texts.append(text)
    for source in sources[:2]:
        texts.append("<XMApp>" * 250 + source + "</XMApp>" * 250)
        texts.append('<!DOCTYPE x [<!ENTITY a "b">]>' + source)
        texts.append("")
    return texts


#: SHA-256 over the outcomes of _rejection_corpus(), recorded at the commit
#: before parse_xmath was rewritten to build nodes in the expat callbacks,
#: then re-recorded when text faults moved to where the text starts (492
#: "text content not allowed" outcomes moved earlier, kind and detail kept).
REJECTIONS_DIGEST = "671d591ca5ec06b40a7f4849e7ebac42ed0b3fa9907e5b20246b5cd51656961f"


def test_rejections_pinned():
    outcomes = [_outcome(text) for text in _rejection_corpus()]
    kinds = {line.split("|", 1)[0] for line in outcomes}
    assert kinds == {"ok"} | {kind.value for kind in ParseErrorKind}
    details = "\n".join(outcomes)
    for phrase in (
        "text content not allowed inside XMApp",
        "text content not allowed inside Math",
        "XMTok cannot contain child elements",
        "XMRef cannot contain child elements",
        "XMRef requires an idref attribute",
        "wrapper must contain exactly one element",
        "nesting deeper",
        "document type",
    ):
        assert phrase in details
    digest = hashlib.sha256(details.encode("utf-8")).hexdigest()
    assert digest == REJECTIONS_DIGEST


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "<XMApp><XMFoo/>junk</XMApp>",
            (ParseErrorKind.MALFORMED_XML, 1, 16, "text content not allowed inside XMApp"),
        ),
        (
            "<XMRef>junk</XMRef>",
            (ParseErrorKind.MALFORMED_XML, 1, 8, "text content not allowed inside XMRef"),
        ),
        (
            "<XMRef><XMTok/></XMRef>",
            (ParseErrorKind.MALFORMED_XML, 1, 1, "XMRef cannot contain child elements"),
        ),
        (
            "<Math><XMFoo/><XMTok/></Math>",
            (ParseErrorKind.MALFORMED_XML, 1, 1, "Math wrapper must contain exactly one element"),
        ),
        (
            "<XMApp><XMTok><XMFoo/></XMTok>x</XMApp>",
            (ParseErrorKind.MALFORMED_XML, 1, 31, "text content not allowed inside XMApp"),
        ),
        (
            "<XMDual><XMTok/><XMTok/><XMApp><XMFoo/></XMApp></XMDual>",
            (ParseErrorKind.UNKNOWN_ELEMENT, 1, 32, "unknown element 'XMFoo'"),
        ),
        (
            "<XMApp><XMDual><XMTok/></XMDual><XMFoo/></XMApp>",
            (ParseErrorKind.DUAL_ARITY, 1, 8, "XMDual must have exactly 2 children, found 1"),
        ),
        (
            "<XMApp><XMDual><XMTok/><XMFoo/></XMDual>x</XMApp>",
            (ParseErrorKind.MALFORMED_XML, 1, 41, "text content not allowed inside XMApp"),
        ),
    ],
)
def test_rejection_precedence_cases(text, expected):
    with pytest.raises(ParseError) as excinfo:
        parse_xmath(text)
    err = excinfo.value
    assert (err.kind, err.line, err.col, err.detail) == expected


_GRAMMAR_NAMES = (
    "XMApp", "XMTok", "m:XMTok", "XMDual", "XMRef", "XMWrap", "Math", "XMath", "XMFoo"
)


def _random_element(rng, depth):
    name = rng.choice(_GRAMMAR_NAMES)
    attrs = ""
    if rng.random() < 0.4:
        attrs += f' xml:id="i{rng.randrange(3)}"'
    if rng.random() < (0.8 if name == "XMRef" else 0.1):
        attrs += f' idref="i{rng.randrange(5)}"'
    parts = []
    for _ in range(rng.randrange(4) if depth < 5 else 0):
        if rng.random() < 0.15:
            parts.append(rng.choice([" ", "\n  ", "x", "\n y"]))
        parts.append(_random_element(rng, depth + 1))
    if rng.random() < 0.15:
        parts.append(rng.choice([" ", "\n", "z"]))
    if not parts:
        return f"<{name}{attrs}/>"
    return f"<{name}{attrs}>{''.join(parts)}</{name}>"


def _random_rejection_corpus() -> list[str]:
    """Random documents over nine element names (wrappers at any depth,
    random xml:id/idref, stray text); one in ten is truncated."""
    rng = random.Random(20261019)
    texts = []
    for _ in range(3000):
        text = _random_element(rng, 0)
        if rng.random() < 0.1:
            text = text[: rng.randrange(len(text))]
        texts.append(text)
    return texts


#: SHA-256 over the outcomes of _random_rejection_corpus(), recorded at the
#: commit before parse_xmath chose its fault as the least held one, then
#: re-recorded when text faults moved to where the text starts (340 "text
#: content not allowed" outcomes moved earlier, kind and detail kept), and
#: again when they moved past the run's leading spaces (109 outcomes of
#: "\n y" runs moved one column on, kind, line and detail kept).
RANDOM_REJECTIONS_DIGEST = (
    "3774d96eb0e6835d933ba0e6ab770ee51c5992279657294524cc619dec296256"
)


def test_random_rejections_pinned():
    outcomes = [_outcome(text) for text in _random_rejection_corpus()]
    kinds = {line.split("|", 1)[0] for line in outcomes}
    assert kinds == {"ok"} | {kind.value for kind in ParseErrorKind}
    details = "\n".join(outcomes)
    digest = hashlib.sha256(details.encode("utf-8")).hexdigest()
    assert digest == RANDOM_REJECTIONS_DIGEST
