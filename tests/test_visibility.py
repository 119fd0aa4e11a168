from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import NodeKind, XMathDocument, mark_visibility, parse_xmath
from xmathml.model import SemanticAttrs, XMathNode
from helpers import nearest_dual_ancestor, oracle_agrees, visibility_oracle
from treegen import random_document


def _by_text(doc, text):
    return [node for node in doc.nodes if node.text == text]


def test_sum_function_classes(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    # Frozen from a hand reachability walk, cross-checked by the oracle.
    assert vis.flags(doc.id_index["m1.1"]) == (True, True)  # F
    assert vis.flags(doc.id_index["m1.2"]) == (True, True)  # a inside wrap
    assert vis.flags(doc.id_index["m1.3"]) == (True, True)  # b
    for text in ("(", ",", ")"):
        (tok,) = _by_text(doc, text)
        assert vis.flags(tok) == (False, True)
    dual = next(n for n in doc.nodes if n.kind is NodeKind.DUAL)
    content_app = dual.children[0]
    assert vis.flags(content_app) == (True, False)
    # Everything outside the dual is shared.
    assert vis.flags(doc.root) == (True, True)
    assert vis.flags(doc.root.children[0]) == (True, True)
    assert oracle_agrees(doc, vis)


def test_no_dual_means_everything_shared():
    doc = parse_xmath("<XMApp><XMTok role='ADDOP'>+</XMTok><XMTok>a</XMTok></XMApp>")
    vis = mark_visibility(doc)
    assert all(vis.flags(node) == (True, True) for node in doc.nodes)


def test_quantum_classes(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    qop = next(n for n in doc.nodes if n.attrs.meaning == "quantum-operator-product")
    assert vis.flags(qop) == (True, False)
    for text in ("⟨", "⟩"):
        (tok,) = _by_text(doc, text)
        assert vis.flags(tok) == (False, True)
    for xml_id in ("m2.5", "m2.6", "m2.7"):  # Ψ, ℋ, Φ via refs
        assert vis.flags(doc.id_index[xml_id]) == (True, True)
    defint = next(
        n for n in doc.nodes if n.attrs.meaning == "hack-definite-integral"
    )
    assert vis.flags(defint) == (True, False)
    integral = next(n for n in doc.nodes if n.attrs.meaning == "integral")
    assert vis.flags(integral) == (False, True)
    assert vis.flags(doc.id_index["m2.4"]) == (True, True)  # x shared via ref
    assert oracle_agrees(doc, vis)


def test_unreached_branch_is_invisible():
    # The inner dual sits in presentation-only territory; its content
    # branch is never referenced, so it stays dark.
    doc = parse_xmath(
        "<XMDual>"
        "<XMTok meaning='plus'/>"
        "<XMDual><XMTok meaning='times'/><XMTok>x</XMTok></XMDual>"
        "</XMDual>"
    )
    vis = mark_visibility(doc)
    inner = doc.root.children[1]
    unreached = inner.children[0]
    assert vis.flags(unreached) == (False, False)
    assert vis.flags(inner.children[1]) == (False, True)


def test_idempotent(quantum_doc):
    first = mark_visibility(quantum_doc)
    second = mark_visibility(quantum_doc)
    assert all(
        first.flags(node) == second.flags(node) for node in quantum_doc.nodes
    )


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_random(seed):
    doc = random_document(seed=seed)
    assert oracle_agrees(doc, mark_visibility(doc))


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_nodes_outside_duals_are_shared(seed):
    doc = random_document(seed=seed)
    vis = mark_visibility(doc)
    for node in doc.nodes:
        if nearest_dual_ancestor(doc, node) is None:
            assert vis.flags(node) == (True, True), node


def _flags_by_path(doc, vis):
    out = {}

    def walk(node, path):
        out[path] = vis.flags(node)
        for i, child in enumerate(node.children):
            walk(child, path + (i,))

    walk(doc.root, ())
    return out


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adding_a_ref_is_monotone(seed):
    base = random_document(seed=seed)
    root = copy.deepcopy(base.root)
    spots = [
        n for n in _iter(root) if n.kind in (NodeKind.APP, NodeKind.WRAP)
    ]
    tokens = [n for n in _iter(root) if n.kind is NodeKind.TOK]
    if not spots or not tokens:
        return
    target = tokens[seed % len(tokens)]
    if target.attrs.xml_id is None:
        target.attrs.xml_id = "extra-target"
    host = spots[seed % len(spots)]
    before = XMathDocument(copy.deepcopy(root))
    host.children.append(
        XMathNode(NodeKind.REF, attrs=SemanticAttrs(idref=target.attrs.xml_id))
    )
    after = XMathDocument(root)
    old = _flags_by_path(before, mark_visibility(before))
    new = _flags_by_path(after, mark_visibility(after))
    for path, (content, presentation) in old.items():
        assert not content or new[path][0], path
        assert not presentation or new[path][1], path


def _iter(node):
    yield node
    for child in node.children:
        yield from _iter(child)


def test_oracle_itself_on_fixture(sum_function_doc):
    # Sanity-check the oracle: the shared tokens really have two kinds of
    # root paths in the fixture.
    reference = visibility_oracle(sum_function_doc)
    f_tok = sum_function_doc.id_index["m1.1"]
    assert reference[f_tok.index] == frozenset({"C", "P"})
