from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    NodeKind,
    ParseError,
    ParseErrorKind,
    TargetNode,
    XMathDocument,
    parse_xmath,
)
from xmathml.model import SemanticAttrs, XMathNode
import idgen
from conftest import FIXTURES
from helpers import nearest_dual_ancestor, serialize_xmath
from sharegen import shared_documents
from treegen import make_corpus, random_document


def _first_dual(doc):
    return next(node for node in doc.nodes if node.kind is NodeKind.DUAL)


def test_resolve_ref_to_function_token(sum_function_doc):
    doc = sum_function_doc
    dual = _first_dual(doc)
    ref = dual.children[0].children[0]
    assert ref.kind is NodeKind.REF and ref.attrs.idref == "m1.1"
    target = doc.resolve_ref(ref)
    assert target is doc.id_index["m1.1"]
    assert target.text == "F"
    assert target.attrs.role == "FUNCTION"


def test_resolve_ref_sibling():
    doc = parse_xmath('<XMApp><XMTok xml:id="t">a</XMTok><XMRef idref="t"/></XMApp>')
    ref = doc.root.children[1]
    assert doc.resolve_ref(ref) is doc.root.children[0]


def test_two_refs_resolve_to_identical_node():
    doc = parse_xmath(
        '<XMApp><XMTok xml:id="t">a</XMTok><XMRef idref="t"/><XMRef idref="t"/></XMApp>'
    )
    first = doc.resolve_ref(doc.root.children[1])
    second = doc.resolve_ref(doc.root.children[2])
    # Identity, not just equality: both are the indexed node for "t".
    assert first is second is doc.id_index["t"]


def test_resolve_ref_is_single_step():
    doc = parse_xmath(
        '<XMApp><XMTok xml:id="t">a</XMTok>'
        '<XMRef xml:id="r" idref="t"/><XMRef idref="r"/></XMApp>'
    )
    outer = doc.root.children[2]
    middle = doc.resolve_ref(outer)
    assert middle.kind is NodeKind.REF
    assert doc.deref(outer).text == "a"


def test_nodes_share_no_mutable_default():
    """Each node made without children, attributes or attrs gets its own."""
    first, second = XMathNode(NodeKind.APP), XMathNode(NodeKind.APP)
    first.children.append(second)
    first.attrs.role = "ID"
    assert second.children == [] and second.attrs == SemanticAttrs()
    assert XMathNode(NodeKind.TOK, [], "a", SemanticAttrs(), 3, 1, 2).col == 2
    one, two = TargetNode("mrow"), TargetNode("mrow")
    one.children.append(two)
    one.attrs["id"] = "m1"
    assert (two.children, two.attrs) == ([], {})


def test_semantic_attrs_compare_and_print_by_value():
    attrs = SemanticAttrs("ID", "plus", stretchy=True)
    assert attrs == SemanticAttrs(role="ID", meaning="plus", stretchy=True)
    assert attrs != SemanticAttrs(role="ID", meaning="plus")
    assert repr(attrs) == (
        "SemanticAttrs(role='ID', meaning='plus', xml_id=None, idref=None, "
        "font=None, mathstyle=None, stretchy=True, scriptpos=None)"
    )


def _tok(text, line, col, **attrs):
    return XMathNode(
        NodeKind.TOK, text=text, attrs=SemanticAttrs(**attrs), line=line, col=col
    )


@pytest.mark.parametrize(
    "second, kind, detail",
    [
        ({"xml_id": "t"}, ParseErrorKind.DUPLICATE_ID, "duplicate xml:id 't'"),
        ({"idref": "nope"}, ParseErrorKind.DANGLING_IDREF, "'nope'"),
    ],
)
def test_hand_built_document_is_validated(second, kind, detail):
    root = XMathNode(
        NodeKind.APP,
        children=[_tok("a", 1, 8, xml_id="t"), _tok("b", 2, 5, **second)],
        line=1,
        col=1,
    )
    with pytest.raises(ParseError) as excinfo:
        XMathDocument(root)
    assert excinfo.value.kind is kind
    assert (excinfo.value.line, excinfo.value.col) == (2, 5)
    assert detail in excinfo.value.detail


def test_hand_built_deep_document_is_indexed():
    """Indexing takes no interpreter frame per level."""
    node = root = XMathNode(NodeKind.APP)
    for _ in range(4999):
        child = XMathNode(NodeKind.APP)
        node.children.append(child)
        node = child
    node.children.append(_tok("x", 1, 1, xml_id="x"))
    doc = XMathDocument(root)
    assert len(doc.nodes) == 5001
    assert all(doc.nodes[i].index == i for i in range(5001))
    assert doc.nodes[0] is root and doc.id_index == {"x": doc.nodes[-1]}


def test_nearest_dual_ancestor_paren(sum_function_doc):
    doc = sum_function_doc
    dual = _first_dual(doc)
    open_paren = next(node for node in doc.nodes if node.text == "(")
    assert nearest_dual_ancestor(doc, open_paren) is dual


def test_nearest_dual_ancestor_top_level_plus(sum_function_doc):
    doc = sum_function_doc
    plus = doc.root.children[0]
    assert plus.text == "+"
    assert nearest_dual_ancestor(doc, plus) is None


def test_nearest_dual_ancestor_inner_dual(quantum_doc):
    doc = quantum_doc
    inner_dual = doc.id_index["m2.3"]
    assert inner_dual.kind is NodeKind.DUAL
    open_paren = next(
        node
        for node in doc.nodes
        if node.text == "(" and nearest_dual_ancestor(doc, node) is not None
    )
    assert nearest_dual_ancestor(doc, open_paren) is inner_dual


def test_top_operator_quantum(quantum_doc):
    doc = quantum_doc
    outer_dual = _first_dual(doc)
    operator = doc.top_operator(outer_dual)
    assert operator is not None
    assert operator.attrs.meaning == "quantum-operator-product"


def test_top_operator_defint(quantum_doc):
    doc = quantum_doc
    duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
    defint_dual = duals[1]
    operator = doc.top_operator(defint_dual)
    assert operator.attrs.meaning == "hack-definite-integral"


def test_top_operator_bare_token_branch():
    doc = parse_xmath(
        "<XMDual><XMTok meaning='plus'/><XMTok role='ADDOP'>+</XMTok></XMDual>"
    )
    assert doc.top_operator(doc.root) is None


def test_top_operator_resolves_refs(sum_function_doc):
    doc = sum_function_doc
    dual = _first_dual(doc)
    # Content branch operator slot holds a ref; it resolves to F.
    assert doc.top_operator(dual).text == "F"


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_nearest_dual_matches_ancestor_scan(seed):
    doc = random_document(seed=seed)
    parent = {child: node for node in doc.nodes for child in node.children}
    for node in doc.nodes:
        chain = []
        current = parent.get(node)
        while current is not None:
            chain.append(current)
            current = parent.get(current)
        expected = next(
            (anc for anc in chain if anc.kind is NodeKind.DUAL), None
        )
        assert nearest_dual_ancestor(doc, node) is expected


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_resolve_ref_total_on_parsed_documents(seed):
    doc = random_document(seed=seed)
    for node in doc.nodes:
        if node.kind is NodeKind.REF:
            target = doc.resolve_ref(node)
            assert target.attrs.xml_id == node.attrs.idref


def test_navigation_does_not_mutate(quantum_doc):
    doc = quantum_doc
    before = serialize_xmath(doc)
    for node in doc.nodes:
        if node.kind is NodeKind.REF:
            doc.resolve_ref(node)
        if node.kind is NodeKind.DUAL:
            doc.top_operator(node)
    assert serialize_xmath(doc) == before


def _parity_texts() -> list[str]:
    """Both fixtures, the goldens, every other fixture, and generated
    treegen, sharegen and idgen documents."""
    paths = sorted(FIXTURES.glob("*.xmath.xml"))
    paths += sorted((FIXTURES.parent.parent / "perfbench" / "golden").glob("*.xmath.xml"))
    texts = [path.read_text("utf-8") for path in paths]
    texts += [serialize_xmath(doc) for doc in make_corpus(40, seed=26)]
    texts += shared_documents(20)
    texts += idgen.formulas(60, seed=26)
    return texts


def _pre_order(node: XMathNode) -> list[XMathNode]:
    return [node] + [n for child in node.children for n in _pre_order(child)]


def test_parsed_index_matches_a_walk():
    """The parser numbers and indexes nodes as XMathDocument's walk does."""
    parsed = 0
    for text in _parity_texts():
        try:
            doc = parse_xmath(text)
        except ParseError:
            continue  # a generated fault: nothing is indexed
        parsed += 1
        assert doc.nodes == _pre_order(doc.root)
        assert [node.index for node in doc.nodes] == list(range(len(doc.nodes)))
        ids = [node.attrs.xml_id for node in doc.nodes if node.attrs.xml_id is not None]
        assert list(doc.id_index) == ids  # document order: IdScheme.infer reads it
        walked = XMathDocument(doc.root)
        assert walked.nodes == doc.nodes
        assert list(walked.id_index.items()) == list(doc.id_index.items())
    assert parsed >= 100, parsed
