"""Generation over ref-shared subtrees: pinned output, independent copies,
and cycles and faults located where they were before repeats were copied."""

from __future__ import annotations

import hashlib

import pytest

from xmathml import (
    Branch,
    EntityMode,
    SerializeOptions,
    build_parallel,
    gen_cmml,
    gen_pmml,
    mark_visibility,
    parse_xmath,
    serialize_mathml,
)
from xmathml.errors import ContentWrapError, ConversionError, ReferenceCycleError
from sharegen import shared_documents

SHARED_COUNT = 300

_MODES = (
    SerializeOptions(),
    SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS),
    SerializeOptions(pretty=True, namespace_prefix="m"),
)

#: SHA-256 over every shared document's serialized output in ``_MODES``,
#: its output nodes' (element, source, branch, origin) in pre-order, or
#: its error type and line:col; recorded before repeated ref subtrees
#: were copied instead of walked again.
SHARED_OUTPUT_SHA256 = (
    "2dff714714ab339756bab0ec02fc761099186a3d9feeb05995368f2af5b0fd5c"
)


def _index(node) -> int:
    return -1 if node is None else node.index


def _branches(math) -> dict[int, int]:
    """Each generated node's branch, from the tree it is in; the wrappers
    around the two trees have none."""
    presentation, annotation_xml = math.children[0].children[:2]
    branch_of = dict.fromkeys(map(id, presentation.iter()), int(Branch.PRESENTATION))
    content = annotation_xml.children[0]
    branch_of.update(dict.fromkeys(map(id, content.iter()), int(Branch.CONTENT)))
    return branch_of


def _converted(texts):
    """(doc, math) per accepted text, or (doc, exception) per rejected one."""
    for text in texts:
        doc = parse_xmath(text)
        try:
            yield doc, build_parallel(doc)
        except ConversionError as exc:
            yield doc, exc


@pytest.fixture(scope="module")
def shared_texts() -> list[str]:
    return shared_documents(SHARED_COUNT)


def test_shared_generation_pinned(shared_texts):
    digest = hashlib.sha256()
    rejected = 0
    for _, math in _converted(shared_texts):
        if isinstance(math, ConversionError):
            rejected += 1
            digest.update(f"{type(math).__name__}|{math.line}:{math.col}\n".encode())
            continue
        for opts in _MODES:
            digest.update(serialize_mathml(math, opts).encode("utf-8"))
        branch_of = _branches(math)
        for node in math.iter():
            branch = branch_of.get(id(node), -1)
            record = (node.element, _index(node.source), branch, _index(node.origin))
            digest.update(f"{record}\n".encode("utf-8"))
    # Most documents convert; the planted faults are few.
    assert 0 < rejected < SHARED_COUNT // 10
    assert digest.hexdigest() == SHARED_OUTPUT_SHA256


def test_shared_documents_amplify(shared_texts):
    """At least a quarter of the documents give four output nodes or more
    per input node, so repeats of a ref target really occur."""
    amplified = 0
    for doc, math in _converted(shared_texts):
        if isinstance(math, ConversionError):
            continue
        vis = mark_visibility(doc)
        out = sum(1 for _ in gen_pmml(doc, vis).iter())
        out += sum(1 for _ in gen_cmml(doc, vis).iter())
        amplified += out >= 4 * len(doc.nodes)
    assert amplified >= SHARED_COUNT // 4


def _assert_no_shared_containers(math) -> None:
    nodes = list(math.iter())
    assert len({id(node.attrs) for node in nodes}) == len(nodes)
    assert len({id(node.children) for node in nodes}) == len(nodes)


def test_copies_share_no_containers(
    sum_function_doc, quantum_doc, corpus, shared_texts
):
    """The linker writes ids into each node's attrs, so no two output
    nodes may share an attrs dict or a children list."""
    for doc in [sum_function_doc, quantum_doc, *corpus]:
        try:
            math = build_parallel(doc)
        except ConversionError:
            continue
        _assert_no_shared_containers(math)
    checked = 0
    for _, math in _converted(shared_texts):
        if not isinstance(math, ConversionError):
            _assert_no_shared_containers(math)
            checked += 1
    assert checked > SHARED_COUNT // 2


#: ``t`` is generated, then copied, before the cycle through ``d`` closes:
#: in presentation at the ref ``e`` (line 6), in content at the ref to
#: ``e`` (line 4), which reaches ``d`` through ``e``.
_CYCLE_AFTER_COPIES = """<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok>
<XMApp xml:id='t'><XMTok role='FUNCTION'>f</XMTok><XMTok>x</XMTok></XMApp>
<XMRef idref='t'/><XMRef idref='t'/>
<XMDual xml:id='d'><XMApp><XMTok meaning='g'/><XMRef idref='t'/><XMRef idref='e'/></XMApp>
<XMApp><XMTok role='MULOP'>·</XMTok><XMRef idref='t'/>
  <XMRef xml:id='e' idref='d'/></XMApp></XMDual></XMApp>"""

#: Both branches copy the dual ``s`` before the ref ``c`` closes the loop
#: back to the dual ``d`` that holds it.
_CYCLE_THROUGH_SHARED_DUAL = """<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok>
<XMDual xml:id='s'><XMApp><XMTok meaning='h'/><XMRef idref='y'/></XMApp>
<XMApp><XMTok role='FUNCTION'>h</XMTok><XMTok xml:id='y'>y</XMTok></XMApp></XMDual>
<XMDual xml:id='d'><XMApp><XMTok meaning='g'/><XMRef idref='s'/><XMRef idref='s'/>
  <XMRef idref='d'/></XMApp>
<XMApp><XMTok role='MULOP'>·</XMTok><XMRef idref='s'/><XMRef idref='s'/>
  <XMRef xml:id='c' idref='d'/></XMApp></XMDual></XMApp>"""


@pytest.mark.parametrize(
    "text, pmml_at, cmml_at",
    [
        (_CYCLE_AFTER_COPIES, (6, 3), (4, 65)),
        (_CYCLE_THROUGH_SHARED_DUAL, (7, 3), (5, 3)),
    ],
)
def test_cycle_after_copies_is_located(text, pmml_at, cmml_at):
    """The cycle is raised at the same ref as before repeats were copied."""
    doc = parse_xmath(text)
    vis = mark_visibility(doc)
    for generate, expected in ((gen_pmml, pmml_at), (gen_cmml, cmml_at)):
        with pytest.raises(ReferenceCycleError) as excinfo:
            generate(doc, vis)
        assert (excinfo.value.line, excinfo.value.col) == expected
    with pytest.raises(ReferenceCycleError) as excinfo:
        build_parallel(doc)
    assert (excinfo.value.line, excinfo.value.col) == pmml_at


def test_wrap_through_two_refs_is_located():
    """Content reaches the wrap ``w`` through the refs to ``r`` and ``w``,
    after copying ``a``; the error names the wrap."""
    text = """<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok>
<XMDual><XMApp><XMTok meaning='g'/><XMRef idref='a'/><XMRef idref='a'/><XMRef idref='r'/></XMApp>
<XMApp><XMTok role='MULOP'>·</XMTok><XMTok xml:id='a'>a</XMTok><XMRef xml:id='r' idref='w'/>
<XMWrap xml:id='w'><XMTok role='OPEN'>(</XMTok><XMTok>b</XMTok><XMTok role='CLOSE'>)</XMTok>
</XMWrap></XMApp></XMDual></XMApp>"""
    doc = parse_xmath(text)
    vis = mark_visibility(doc)
    for generate in (lambda: gen_cmml(doc, vis), lambda: build_parallel(doc)):
        with pytest.raises(ContentWrapError) as excinfo:
            generate()
        assert excinfo.value.node is doc.id_index["w"]
        assert (excinfo.value.line, excinfo.value.col) == (4, 1)
