from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    NodeKind,
    XMathDocument,
    build_parallel,
    build_presentation,
    check_links,
    gen_pmml,
    mark_visibility,
    parse_xmath,
    read_xml_tree,
    serialize_mathml,
    token_to_pmml,
)
from xmathml.errors import MalformedApplyError
from xmathml.model import SemanticAttrs, XMathNode
from helpers import PRESENTATION_ELEMENTS, find, parse_mathml, same_shape, sum_of
from treegen import random_document


def _pres_tree(doc):
    return gen_pmml(doc, mark_visibility(doc))


def _expected_presentation(mathml_text):
    math = parse_mathml(mathml_text)
    return math.children[0].children[0]  # semantics / first child


def test_sum_function_shape(sum_function_doc, sum_function_mathml):
    actual = _pres_tree(sum_function_doc)
    expected = _expected_presentation(sum_function_mathml)
    assert same_shape(actual, expected, ignore_attrs=("id", "xref"))


def test_quantum_shape_with_fusion(quantum_doc, quantum_mathml):
    actual = _pres_tree(quantum_doc)
    expected = _expected_presentation(quantum_mathml)
    assert same_shape(actual, expected, ignore_attrs=("id", "xref"))
    fused = find(actual, "msubsup")
    assert fused is not None
    assert [child.element for child in fused.children] == ["mo", "mi", "mi"]
    assert find(actual, "mo", "⁢") is not None  # invisible times


def test_single_token_document():
    doc = parse_xmath("<XMTok role='ID'>a</XMTok>")
    tree = _pres_tree(doc)
    assert tree.element == "mi"
    assert tree.text == "a"
    assert tree.children == []


def _tok(text="x", **attrs):
    return XMathNode(NodeKind.TOK, text=text, attrs=SemanticAttrs(**attrs))


def test_token_plus():
    built = token_to_pmml(_tok("+", role="ADDOP", meaning="plus"))
    assert built.element == "mo"
    assert built.text == "+"
    assert built.attrs == {}


def test_token_caligraphic():
    built = token_to_pmml(_tok("H", role="ID", font="caligraphic"))
    assert built.element == "mi"
    assert built.text == "ℋ"
    assert built.attrs == {"class": "ltx_font_mathcaligraphic"}


def test_token_digits_become_mn():
    built = token_to_pmml(_tok("42", role="ID"))
    assert built.element == "mn"
    # Character-class oracle for the classification rule.
    for text in ("42", "7", "0", "123456"):
        assert all(c in "0123456789" for c in text)
        assert token_to_pmml(_tok(text, role="ID")).element == "mn"
    for text in ("a", "4a", "3.14", "", "x2"):
        expected = "mn" if text and all(c in "0123456789" for c in text) else "mi"
        assert token_to_pmml(_tok(text, role="ID")).element == expected


def test_token_greek_capital_upright():
    built = token_to_pmml(_tok("Ψ", role="ID"))
    assert built.element == "mi"
    assert built.attrs == {"mathvariant": "normal"}
    # Lowercase greek stays default italic.
    assert token_to_pmml(_tok("ψ", role="ID")).attrs == {}


def test_token_normal_font():
    assert token_to_pmml(_tok("x", role="ID", font="normal")).attrs == {
        "mathvariant": "normal"
    }
    assert token_to_pmml(_tok("x", role="ID", font="italic")).attrs == {}


def test_italic_font_kept_on_several_letters():
    # A single letter is italic by default; several need mathvariant.
    (mi,) = _pres_tree(parse_xmath("<XMTok font='italic'>ab</XMTok>")).iter()
    assert (mi.element, mi.text, mi.attrs) == ("mi", "ab", {"mathvariant": "italic"})


def test_token_intop():
    built = token_to_pmml(
        _tok("∫", role="INTOP", meaning="integral", mathstyle="display")
    )
    assert built.element == "mo"
    assert built.attrs == {"largeop": "true", "symmetric": "true"}


def test_token_fences():
    stretchy_bar = token_to_pmml(_tok("|", role="CLOSE", stretchy=True))
    assert stretchy_bar.attrs == {"stretchy": "true", "fence": "true"}
    rigid_paren = token_to_pmml(_tok("(", role="OPEN", stretchy=False))
    assert rigid_paren.attrs == {"stretchy": "false"}


def test_invisible_times_layout():
    doc = parse_xmath(
        "<XMApp><XMTok meaning='times' role='MULOP'></XMTok>"
        "<XMTok>X</XMTok><XMTok>Y</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert [child.element for child in tree.children] == ["mi", "mo", "mi"]
    assert tree.children[1].text == "⁢"


def test_explicit_infix_repeats_operator():
    doc = parse_xmath(
        "<XMApp><XMTok meaning='plus' role='ADDOP'>+</XMTok>"
        "<XMTok>a</XMTok><XMTok>b</XMTok><XMTok>c</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    texts = [child.text for child in tree.children]
    assert texts == ["a", "+", "b", "+", "c"]
    plus_tokens = [c for c in tree.children if c.text == "+"]
    assert plus_tokens[0].source is plus_tokens[1].source


def test_function_layout_inserts_apply_function():
    doc = parse_xmath(
        "<XMApp><XMTok role='FUNCTION'>f</XMTok><XMTok>x</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert [child.element for child in tree.children] == ["mi", "mo", "mi"]
    assert tree.children[1].text == "⁡"


def test_msubsup_fusion_unit():
    doc = parse_xmath(
        "<XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post2'/>"
        "<XMApp><XMTok role='SUBSCRIPTOP' scriptpos='post2'/>"
        "<XMTok role='INTOP' meaning='integral'>∫</XMTok>"
        "<XMTok>a</XMTok></XMApp>"
        "<XMTok>b</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert tree.element == "msubsup"
    assert [c.element for c in tree.children] == ["mo", "mi", "mi"]
    assert [c.text for c in tree.children] == ["∫", "a", "b"]


_X_SUB_I = (
    "<XMApp{base_id}><XMTok xml:id='sub' role='SUBSCRIPTOP' scriptpos='post1'/>"
    "<XMTok xml:id='x'>x</XMTok><XMTok xml:id='i'>i</XMTok></XMApp>"
)
_POWER_OF_X_SUB_I = (
    "<XMDual><XMApp><XMTok meaning='power'/>{base}<XMTok xml:id='n'>2</XMTok></XMApp>"
    "<XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>{shown}"
    "<XMRef idref='n'/></XMApp></XMDual>"
)


@pytest.mark.parametrize(
    "xmath",
    [
        # The subscript operator is reached through a ref.
        _POWER_OF_X_SUB_I.format(
            base=_X_SUB_I.format(base_id=""),
            shown="<XMApp><XMRef idref='sub'/><XMRef idref='x'/>"
            "<XMRef idref='i'/></XMApp>",
        ),
        # The whole base is reached through a ref.
        _POWER_OF_X_SUB_I.format(
            base=_X_SUB_I.format(base_id=" xml:id='base'"),
            shown="<XMRef idref='base'/>",
        ),
    ],
    ids=["ref-operator", "ref-base"],
)
def test_msubsup_fusion_through_refs(xmath):
    """x_i^2 written with refs into the content branch fuses into one
    msubsup in both presentation-bearing modes, and checks clean."""
    pmml = serialize_mathml(build_presentation(parse_xmath(xmath)))
    assert pmml == (
        '<math id="m1" class="ltx_Math" xmlns="http://www.w3.org/1998/Math/MathML">'
        '<msubsup id="m1.1"><mi id="x">x</mi><mi id="i">i</mi><mn id="n">2</mn>'
        "</msubsup></math>\n"
    )
    parallel = read_xml_tree(serialize_mathml(build_parallel(parse_xmath(xmath))))
    fused = parallel.children[0].children[0]
    assert fused.element == "msubsup"
    assert [(c.text, c.attrs["xref"]) for c in fused.children] == [
        ("x", "x.cmml"),
        ("i", "i.cmml"),
        ("2", "n.cmml"),
    ]
    assert check_links(parallel).ok


_SUB_B = (
    "<XMApp xml:id='b'><XMTok role='SUBSCRIPTOP' scriptpos='post1'/>"
    "<XMTok>x</XMTok><XMTok>i</XMTok></XMApp>"
)
_SUP_B_B = (
    "<XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>"
    "<XMRef idref='b'/><XMRef idref='b'/></XMApp>"
)


@pytest.mark.parametrize(
    "text",
    [
        sum_of(_SUB_B, _SUP_B_B),
        sum_of("<XMRef idref='b'/>", _SUP_B_B, _SUB_B),
        sum_of(
            f"<XMDual><XMApp><XMTok meaning='list'/>{_SUB_B}</XMApp>"
            "<XMTok>y</XMTok></XMDual>",
            _SUP_B_B,
        ),
    ],
    ids=["base-first", "ref-first", "content-only"],
)
def test_fused_base_shared_with_its_script(text):
    """{x_i}^{x_i} with base and script both refs to an x_i term, met
    after that term, after a ref to it, or with the term in a content
    branch only, so that the script copies an msub whose group the fused
    base emptied: the fused msubsup holds x, i and a copy of the whole
    msub."""
    for build in (build_parallel, build_presentation):
        math = build(parse_xmath(text))
        fused = find(math, "msubsup")
        assert [c.element for c in fused.children] == ["mi", "mi", "msub"]
        assert [c.text for c in fused.children[2].children] == ["x", "i"]
        assert build is build_presentation or check_links(math).ok


def test_incompatible_scriptpos_stays_nested():
    doc = parse_xmath(
        "<XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>"
        "<XMApp><XMTok role='SUBSCRIPTOP' scriptpos='post2'/>"
        "<XMTok>F</XMTok><XMTok>a</XMTok></XMApp>"
        "<XMTok>b</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert tree.element == "msup"
    assert tree.children[0].element == "msub"


def test_plain_msub():
    doc = parse_xmath(
        "<XMApp><XMTok role='SUBSCRIPTOP'/><XMTok>x</XMTok><XMTok>i</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert tree.element == "msub"
    assert [c.text for c in tree.children] == ["x", "i"]


def test_diffop_prefix():
    doc = parse_xmath(
        "<XMApp><XMTok meaning='differential-d' role='DIFFOP'>d</XMTok>"
        "<XMTok>x</XMTok></XMApp>"
    )
    tree = _pres_tree(doc)
    assert [c.element for c in tree.children] == ["mo", "mi"]
    assert tree.children[0].text == "d"


def test_empty_app_raises():
    doc = parse_xmath("<XMApp/>")
    with pytest.raises(MalformedApplyError):
        _pres_tree(doc)


def test_empty_wrap_renders_empty_row():
    doc = parse_xmath("<XMDual><XMTok meaning='plus'/><XMWrap/></XMDual>")
    tree = _pres_tree(doc)
    assert tree.element == "mrow"
    assert tree.children == []


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_presentation_invariants(seed):
    doc = random_document(seed=seed)
    vis = mark_visibility(doc)
    tree = gen_pmml(doc, vis)
    nodes = list(tree.iter())

    # Inventory: only presentation elements, minus the math wrapper.
    assert {n.element for n in nodes} <= PRESENTATION_ELEMENTS - {"math"}

    # Nothing presentation-invisible may generate output.
    for node in nodes:
        assert vis.presentation_visible(node.origin), node

    # Every presentation-visible token yields a token element, except the
    # script operators which msub/msup/msubsup layout consumes.
    token_yield: dict[int, int] = {}
    for node in nodes:
        if node.element in ("mi", "mo", "mn"):
            token_yield[node.origin.index] = token_yield.get(node.origin.index, 0) + 1
    for node in doc.nodes:
        if node.kind is not NodeKind.TOK or not vis.presentation_visible(node):
            continue
        if node.attrs.role in ("SUPERSCRIPTOP", "SUBSCRIPTOP"):
            continue
        assert token_yield.get(node.index, 0) >= 1, node


def test_exactly_one_token_target_each(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    nodes = list(gen_pmml(doc, vis).iter())
    for tok in doc.nodes:
        if tok.kind is not NodeKind.TOK or not vis.presentation_visible(tok):
            continue
        mine = [
            n for n in nodes if n.origin is tok and n.element in ("mi", "mo", "mn")
        ]
        assert len(mine) == 1, tok


def test_script_operators_consumed(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    nodes = list(gen_pmml(doc, vis).iter())
    for tok in doc.nodes:
        if tok.kind is not NodeKind.TOK or not vis.presentation_visible(tok):
            continue
        count = sum(
            1 for n in nodes if n.origin is tok and n.element in ("mi", "mo", "mn")
        )
        if tok.attrs.role in ("SUPERSCRIPTOP", "SUBSCRIPTOP"):
            assert count == 0, tok  # fused into msubsup, no token of their own
        else:
            assert count == 1, tok


def test_no_content_only_output(quantum_doc):
    vis = mark_visibility(quantum_doc)
    tree = gen_pmml(quantum_doc, vis)
    for node in tree.iter():
        # Nothing in the output may render text belonging to content-only
        # tokens (the csymbol meanings never show up).
        assert node.text != "quantum-operator-product"
        assert node.text != "hack-definite-integral"
        assert vis.presentation_visible(node.origin)


def test_dual_branch_in_isolation(quantum_doc, quantum_xmath):
    doc = quantum_doc
    vis = mark_visibility(doc)
    full = gen_pmml(doc, vis)
    inner_dual = doc.id_index["m2.3"]
    # Renders as the F(x) row inside the integrand.
    subtree = None
    for node in full.iter():
        if node.source is inner_dual and node.element == "mrow":
            subtree = node
            break
    assert subtree is not None
    standalone_doc = XMathDocument(copy.deepcopy(inner_dual.children[1]))
    standalone = gen_pmml(standalone_doc, mark_visibility(standalone_doc))
    assert same_shape(standalone, subtree, ignore_attrs=("id", "xref"))
