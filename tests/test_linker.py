from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from xmathml import (
    Branch,
    EntityMode,
    IdScheme,
    LinkReport,
    NodeKind,
    SerializeOptions,
    TargetNode,
    XMathDocument,
    XMathNode,
    assemble_parallel,
    assemble_single,
    assign_ids,
    build_content,
    build_parallel,
    build_presentation,
    build_registry,
    check_links,
    gen_cmml,
    gen_pmml,
    mark_visibility,
    parse_xmath,
    serialize_mathml,
)
from xmathml.cli import main
from xmathml.errors import ConversionError, IdCollisionError, ParseError
from xmathml.linker import _SUFFIXES, _suffix_letters
import idgen
from conftest import fixture_text
from helpers import bra_ket_chain, parse_mathml, sum_of
from treegen import make_corpus


def _linked(doc, scheme=None):
    vis = mark_visibility(doc)
    pres = gen_pmml(doc, vis)
    cmml = gen_cmml(doc, vis)
    scheme = scheme or IdScheme.infer(doc)
    registry = build_registry(pres, cmml)
    assign_ids(registry, scheme)
    return pres, cmml, scheme


def _ids(tree):
    return {node.attrs["id"]: node for node in tree.iter()}


def test_suffix_letters():
    assert [_suffix_letters(i) for i in (0, 1, 2, 26, 27, 28)] == [
        "", "a", "b", "z", "aa", "ab",
    ]


def test_suffix_table_follows_suffix_letters():
    assert _SUFFIXES == tuple(_suffix_letters(i) for i in range(703))


def test_scheme_inference(sum_function_doc, quantum_doc):
    assert IdScheme.infer(sum_function_doc) == IdScheme("m1", 4)
    assert IdScheme.infer(quantum_doc) == IdScheme("m2", 8)


@pytest.mark.parametrize(
    "ids, expected",
    [
        # Any Unicode decimal digits count, as int reads them; a counter
        # is matched as a prefix, so what follows it does not matter.
        (["m1.\uff11\uff12"], 13),
        (["m1.12a"], 13),
        (["m1.3", "m1.12a", "m1.x", "m1.", "m12.40", "m1\u0660.50", "m1.7"], 13),
    ],
)
def test_scheme_inference_counter_shapes(ids, expected):
    body = "".join(f'<XMTok xml:id="{xml_id}"/>' for xml_id in ids)
    doc = parse_xmath(f"<XMApp>{body}</XMApp>")
    assert IdScheme.infer(doc) == IdScheme("m1", expected)


def test_scheme_inference_no_ids():
    doc = parse_xmath("<XMTok>a</XMTok>")
    assert IdScheme.infer(doc) == IdScheme("m1", 1)


def test_scheme_and_report_fields():
    """Keywords, positions and fresh defaults; ``issued`` is outside the
    scheme's equality and repr."""
    scheme = IdScheme(prefix="m2", next_counter=5)
    assert scheme == IdScheme("m2", 5, {"m2.1"}) != IdScheme("m2", 6)
    assert repr(scheme) == "IdScheme(prefix='m2', next_counter=5)"
    scheme.issued.add("m2.5")
    assert IdScheme().issued == set() and IdScheme() == IdScheme("m1", 1)
    first, second = LinkReport(), LinkReport()
    first.add("id-missing", "mi")
    assert (first.lines(), second.violations) == (["id-missing: mi"], [])


def test_input_ids_become_bases(sum_function_doc):
    pres, cmml, _ = _linked(sum_function_doc)
    pres_ids = _ids(pres)
    cmml_ids = _ids(cmml)
    assert pres_ids["m1.1"].text == "F"
    assert cmml_ids["m1.1.cmml"].text == "F"
    assert pres_ids["m1.1"].attrs["xref"] == "m1.1.cmml"
    assert cmml_ids["m1.1.cmml"].attrs["xref"] == "m1.1"


def test_allocation_continues_input_sequence(sum_function_doc):
    pres, cmml, _ = _linked(sum_function_doc)
    allocated = {
        node.attrs["id"]
        for node in list(pres.iter()) + list(cmml.iter())
        if node.attrs["id"].startswith("m1.") and not node.attrs["id"].startswith("m1.1")
    }
    numbers = set()
    for node_id in allocated:
        head = node_id[len("m1."):].split(".")[0].rstrip("abcdefghijklmnopqrstuvwxyz")
        numbers.add(int(head))
    assert numbers <= {2, 3, 4, 5, 6, 7}
    assert min(n for n in numbers if n >= 4) == 4  # fresh bases start at m1.4


def test_quantum_delimiters_share_base(quantum_doc):
    pres, cmml, _ = _linked(quantum_doc)
    delimiters = [
        node
        for node in pres.iter()
        if node.text in ("⟨", "|", "⟩") and node.element == "mo"
    ]
    assert len(delimiters) == 4
    base = delimiters[0].attrs["id"]
    assert [d.attrs["id"] for d in delimiters] == [
        base, base + "a", base + "b", base + "c",
    ]
    csymbol = next(n for n in cmml.iter() if n.element == "csymbol")
    assert csymbol.attrs["id"] == base + ".cmml"
    # All four delimiters point at the csymbol; it points back at the
    # document-order-first delimiter.
    assert {d.attrs["xref"] for d in delimiters} == {base + ".cmml"}
    assert csymbol.attrs["xref"] == base


def test_single_shared_token_two_ids():
    doc = parse_xmath("<XMTok role='ID'>a</XMTok>")
    pres, cmml, _ = _linked(doc)
    assert pres.attrs["id"] == "m1.1"
    assert cmml.attrs["id"] == "m1.1.cmml"
    assert pres.attrs["xref"] == "m1.1.cmml"
    assert cmml.attrs["xref"] == "m1.1"


def test_content_wrappers_xref_first_presentation_target(quantum_doc):
    pres, cmml, _ = _linked(quantum_doc)
    duals = [n for n in quantum_doc.nodes if n.kind is NodeKind.DUAL]
    defint_dual = duals[1]
    pres_targets = [n for n in pres.iter() if n.source is defint_dual]
    first = pres_targets[0]
    assert first.element == "mrow"  # the outer row, ancestor-first order
    for element in ("bvar", "lowlimit", "uplimit"):
        wrapper = next(n for n in cmml.iter() if n.element == element)
        assert wrapper.source is defint_dual
        assert wrapper.attrs["xref"] == first.attrs["id"]


def test_no_xref_without_opposite_targets():
    # The dual's content branch is a ref straight to the shared token, so
    # nothing on the content side is ascribed to the dual itself; its
    # presentation decorations then carry no xref.
    doc = parse_xmath(
        "<XMDual><XMRef idref='v1'/>"
        "<XMWrap><XMTok role='OPEN'>(</XMTok>"
        "<XMTok xml:id='v1' role='ID'>x</XMTok>"
        "<XMTok role='CLOSE'>)</XMTok></XMWrap></XMDual>"
    )
    pres, cmml, _ = _linked(doc)
    registry_check = [n for n in cmml.iter() if n.source is doc.root]
    assert registry_check == []  # oracle: the registry has no such targets
    row = pres
    assert row.element == "mrow"
    assert "xref" not in row.attrs
    parens = [n for n in row.children if n.text in ("(", ")")]
    assert parens and all("xref" not in p.attrs for p in parens)
    x_pres = next(n for n in row.children if n.text == "x")
    assert x_pres.attrs["xref"] == "v1.cmml"


def test_id_collision_detected():
    # First ids never skip: the x.cmml token's presentation id and the x
    # token's content id are both x.cmml.
    doc = parse_xmath(
        "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>a</XMTok>"
        "<XMTok xml:id='x.cmml'>b</XMTok></XMApp>"
    )
    vis = mark_visibility(doc)
    registry = build_registry(gen_pmml(doc, vis), gen_cmml(doc, vis))
    with pytest.raises(IdCollisionError, match="'x.cmml' allocated twice"):
        assign_ids(registry, IdScheme.infer(doc))


@pytest.mark.parametrize(
    "text, presentation_ids",
    [
        # x shows up twice beside a token whose own xml:id is xa.
        (
            "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>x</XMTok>"
            "<XMRef idref='x'/><XMTok xml:id='xa'>y</XMTok></XMApp>",
            ["m1.1", "x", "m1.2", "xb", "m1.2a", "xa"],
        ),
        # f shows up twice beside the g token, whose xml:id is m1.1a.
        (
            "<XMDual>"
            "<XMApp><XMTok xml:id='m1.1' role='FUNCTION'>f</XMTok>"
            "<XMRef idref='m1.1a'/></XMApp>"
            "<XMWrap><XMRef idref='m1.1'/><XMRef idref='m1.1'/>"
            "<XMTok xml:id='m1.1a'>g</XMTok></XMWrap>"
            "</XMDual>",
            ["m1.2", "m1.1", "m1.1b", "m1.1a"],
        ),
    ],
)
def test_suffixes_skip_issued_ids(text, presentation_ids):
    math = build_parallel(parse_xmath(text))
    presentation = math.children[0].children[0]
    assert [node.attrs["id"] for node in presentation.iter()] == presentation_ids
    assert check_links(math).ok


def test_wrapper_id_collision_with_input():
    """An input id equal to the prefix is kept; the wrappers skip it."""
    doc = parse_xmath("<XMApp><XMTok xml:id='m1'>f</XMTok><XMTok>x</XMTok></XMApp>")
    pres, cmml, scheme = _linked(doc)
    math = assemble_parallel(pres, cmml, tex="f x", scheme=scheme)
    assert pres.children[0].attrs["id"] == "m1"
    assert [node.attrs["id"] for node in math.iter() if node.source is None] == [
        "m1a", "m1b", "m1c", "m1d",
    ]
    assert check_links(math).ok


_PLUS = "<XMApp><XMTok role='ADDOP' meaning='plus'/>"


@pytest.mark.parametrize(
    "text, first",
    [
        # m1 and m1a in one formula: the wrappers start at m1b.
        (_PLUS + "<XMTok xml:id='m1'>a</XMTok><XMTok xml:id='m1a'>b</XMTok></XMApp>", "b"),
        # m1 used twice: its copy takes m1a, and the wrappers start at m1b.
        (_PLUS + "<XMTok xml:id='m1'>a</XMTok><XMRef idref='m1'/></XMApp>", "b"),
        # m1 used twice beside m1a: the copy takes m1b, the wrappers m1c on.
        (
            _PLUS + "<XMTok xml:id='m1'>a</XMTok><XMRef idref='m1'/>"
            "<XMTok xml:id='m1a'>b</XMTok></XMApp>",
            "c",
        ),
        # m1 used twice beside m1a and m1b: the copy takes m1c, the
        # wrappers m1d on (CI also pipes this fixture through the script).
        (fixture_text("wrapper_ids.xmath.xml"), "d"),
    ],
    ids=["m1-beside-m1a", "m1-twice", "m1-twice-beside-m1a", "fixture"],
)
def test_wrapper_ids_skip_wrapper_shaped_ids(text, first):
    """Wrappers take the first ids of m1, m1a, m1b, ... not issued to a
    node, and the output checks clean in memory and re-parsed."""
    skipped = [f"m1{chr(ord(first) + k)}" for k in range(4)]
    for tex in (None, "t"):
        math = build_parallel(parse_xmath(text), tex=tex)
        wrappers = [node.attrs["id"] for node in math.iter() if node.source is None]
        assert wrappers == skipped[: 3 if tex is None else 4]
        assert check_links(math).lines() == []
        for opts in _REPARSE_MODES:
            assert check_links(parse_mathml(serialize_mathml(math, opts))).lines() == []
    presentation = build_presentation(parse_xmath(text))
    assert presentation.attrs["id"] == skipped[0]
    # Content ids end in .cmml, so no content node takes a wrapper's id.
    content = build_content(parse_xmath(text))
    assert content.attrs["id"] == "m1"
    for math in (presentation, content):
        ids = [node.attrs["id"] for node in math.iter()]
        assert len(set(ids)) == len(ids)


def test_assemble_with_tex(sum_function_doc):
    pres, cmml, scheme = _linked(sum_function_doc)
    math = assemble_parallel(pres, cmml, tex="a+F(a,b)", display="block", scheme=scheme)
    assert math.attrs["id"] == "m1"
    assert math.attrs["alttext"] == "a+F(a,b)"
    assert math.attrs["class"] == "ltx_Math"
    assert math.attrs["display"] == "block"
    semantics = math.children[0]
    assert semantics.attrs["id"] == "m1a"
    kinds = [child.element for child in semantics.children]
    assert kinds == ["mrow", "annotation-xml", "annotation"]
    assert semantics.children[1].attrs == {
        "id": "m1b",
        "encoding": "MathML-Content",
    }
    annotation = semantics.children[2]
    assert annotation.attrs["id"] == "m1c"
    assert annotation.attrs["encoding"] == "application/x-tex"
    assert annotation.text == "a+F(a,b)"


def test_assemble_without_tex(sum_function_doc):
    pres, cmml, scheme = _linked(sum_function_doc)
    math = assemble_parallel(pres, cmml, scheme=scheme)
    assert "alttext" not in math.attrs
    assert [c.element for c in math.children[0].children] == [
        "mrow",
        "annotation-xml",
    ]


def test_presentation_only_mode_has_no_xrefs(sum_function_doc):
    math = build_presentation(sum_function_doc)
    nodes = list(math.iter())
    assert all("xref" not in node.attrs for node in nodes)
    assert all("id" in node.attrs for node in nodes)


def test_content_only_mode(quantum_doc):
    from xmathml import build_content

    math = build_content(quantum_doc)
    assert math.element == "math"
    nodes = list(math.iter())
    assert all("xref" not in node.attrs for node in nodes)
    assert all("id" in node.attrs for node in nodes)
    assert any(node.element == "uplimit" for node in nodes)  # expansion ran


def test_check_links_clean(sum_function_doc):
    math = build_parallel(sum_function_doc, tex="a+F(a,b)")
    report = check_links(math)
    assert report.ok
    assert report.lines() == []


def test_check_links_corrupted_xref(sum_function_doc):
    math = build_parallel(sum_function_doc, tex="a+F(a,b)")
    victim = next(n for n in math.iter() if n.attrs.get("xref") == "m1.1.cmml")
    victim.attrs["xref"] = "m1.2.cmml"
    report = check_links(math)
    assert not report.ok
    assert len(report.violations) == 1
    message = report.lines()[0]
    assert "m1.1" in message and "m1.2.cmml" in message


def test_check_links_dangling_xref(sum_function_doc):
    math = build_parallel(sum_function_doc)
    victim = next(n for n in math.iter() if "xref" in n.attrs)
    victim.attrs["xref"] = "nope"
    report = check_links(math)
    assert any(v.kind == "xref-resolution" for v in report.violations)


def test_check_links_duplicate_id_report(sum_function_doc):
    """With a duplicated id, an xref resolves to the first node carrying
    it in the opposite tree."""
    math = parse_mathml(serialize_mathml(build_parallel(sum_function_doc)))
    victim = next(n for n in math.iter() if n.attrs.get("id") == "m1.6")
    victim.attrs["id"] = "m1.5.cmml"
    assert check_links(math).lines() == [
        "id-uniqueness: id 'm1.5.cmml' appears more than once",
        "shared-source: m1.5.cmml and its xref target m1.6.cmml have different sources",
        "xref-resolution: m1.6.cmml points at 'm1.6', which does not exist",
    ]


def test_check_links_xref_to_wrapper_id_in_memory(sum_function_doc):
    """An xref naming an id that a wrapper also carries resolves to the
    node carrying it in the opposite tree, never to the wrapper; in memory
    and re-parsed alike, the renamed content node leaves m1.5's class."""
    math = build_parallel(sum_function_doc)
    next(n for n in math.iter() if n.attrs.get("id") == "m1.5.cmml").attrs["id"] = "m1"
    next(n for n in math.iter() if n.attrs.get("id") == "m1.5").attrs["xref"] = "m1"
    expected = [
        "id-uniqueness: id 'm1' appears more than once",
        "shared-source: m1.5 and its xref target m1 have different sources",
        "shared-source: m1 and its xref target m1.5 have different sources",
    ]
    assert check_links(math).lines() == expected
    assert check_links(parse_mathml(serialize_mathml(math))).lines() == expected


def test_check_links_xref_resolves_on_the_opposite_side(sum_function_doc):
    """A content id copying a presentation id does not make the content
    xrefs naming that presentation node point into their own branch."""
    math = build_parallel(sum_function_doc)
    next(n for n in math.iter() if n.attrs.get("id") == "m1.2.cmml").attrs["id"] = "m1.1"
    expected = [
        "id-uniqueness: id 'm1.1' appears more than once",
        "xref-resolution: m1.2 points at 'm1.2.cmml', which does not exist",
        "shared-source: m1.1 and its xref target m1.2 have different sources",
    ]
    assert check_links(math).lines() == expected
    assert check_links(parse_mathml(serialize_mathml(math))).lines() == expected


def test_check_links_xref_to_wrapper_id_names_the_wrapper(sum_function_doc):
    """An xref naming only a wrapper's id is an xref-branch finding whose
    message says so, rather than claiming the id is on the same side."""
    math = build_parallel(sum_function_doc)
    next(n for n in math.iter() if n.attrs.get("id") == "m1.5").attrs["xref"] = "m1a"
    assert check_links(math).lines() == ["xref-branch: m1.5 points at 'm1a' on a wrapper"]


def test_check_links_on_published_example(sum_function_mathml):
    math = parse_mathml(sum_function_mathml)
    report = check_links(math)
    assert report.ok, report.lines()


def test_check_links_on_transfix_example(quantum_mathml):
    math = parse_mathml(quantum_mathml)
    report = check_links(math)
    assert report.ok, report.lines()


def test_byte_stable_output(quantum_xmath):
    def run():
        doc = parse_xmath(quantum_xmath)
        return serialize_mathml(build_parallel(doc, tex="..."))

    assert run() == run()


def test_registry_refuses_unascribed_node():
    doc = XMathDocument(XMathNode(NodeKind.TOK, text="a"))
    ascribed = TargetNode("mi", text="a", source=doc.root)
    unascribed = TargetNode("mi", text="b")
    tree = TargetNode("mrow", children=[ascribed, unascribed], source=doc.root)
    message = r"^unascribed node <mi 'b'> reached the linker$"
    for trees in ({"pmml": tree}, {"cmml": tree}):
        with pytest.raises(ValueError, match=message):
            build_registry(**trees)


def test_source_level_bijection(quantum_doc):
    pres, cmml, _ = _linked(quantum_doc)
    by_source = {}
    for branch, tree in ((Branch.PRESENTATION, pres), (Branch.CONTENT, cmml)):
        for node in tree.iter():
            by_source.setdefault((node.source.index, branch), []).append(node)
    for (source, branch), nodes in by_source.items():
        opposite = by_source.get((source, branch.opposite))
        if not opposite:
            assert all("xref" not in n.attrs for n in nodes)
            continue
        xrefs = {n.attrs["xref"] for n in nodes}
        assert xrefs == {opposite[0].attrs["id"]}
        assert opposite[0].attrs["xref"] == nodes[0].attrs["id"]


_VIOLATION_KINDS = frozenset(
    {
        "id-uniqueness",
        "id-missing",
        "wrapper-xref",
        "missing-xref",
        "xref-resolution",
        "xref-branch",
        "shared-source",
        "document-order",
    }
)

_REPARSE_MODES = (
    SerializeOptions(),
    SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS),
    SerializeOptions(pretty=True),
    SerializeOptions(namespace_prefix="m"),
)


def _mutate(math, rng) -> None:
    """Apply 1-3 random id/xref edits to an assembled math element."""
    nodes = list(math.iter())
    wrapper_id = math.attrs["id"]
    for _ in range(rng.randint(1, 3)):
        node = rng.choice(nodes)
        other = rng.choice(nodes)
        kind = rng.randrange(7)
        if kind == 0 and "id" in other.attrs:  # a copied id
            node.attrs["id"] = other.attrs["id"]
        elif kind == 1 and "id" in other.attrs:  # an xref to another node's id
            node.attrs["xref"] = other.attrs["id"]
        elif kind == 2:  # a dropped id or xref
            node.attrs.pop(rng.choice(("id", "xref")), None)
        elif kind == 3:  # a dangling xref
            node.attrs["xref"] = "nowhere"
        elif kind == 4:  # a wrapper-like id
            node.attrs["id"] = wrapper_id + rng.choice(("", "a"))
        elif kind == 5 and "id" in node.attrs:  # a letter-ending id
            node.attrs["id"] += rng.choice(("x", "psi"))
        elif kind == 6:  # a letter-ending id beside no base of its own
            node.attrs["id"] = "p1psi"


#: SHA-256 over the report lines of _check_reports(), recorded when
#: check_links began classing nodes by the xref star on both paths and
#: naming wrapper ids in xref-branch messages.
CHECK_REPORTS_DIGEST = (
    "d17629319caa354ed5ca6c6ca33701904e599147af04e03bd118445f3e3b6d11"
)


def _check_reports(sum_function_xmath, quantum_xmath):
    rng = random.Random(20261018)
    docs = [
        (parse_xmath(sum_function_xmath), "a+F(a,b)"),
        (parse_xmath(quantum_xmath), "..."),
    ]
    docs += [(doc, "t") for doc in make_corpus(200, seed=20261018)]
    reports = []
    for doc, tex in docs:
        math = build_parallel(doc, tex=tex)
        texts = [serialize_mathml(math, opts) for opts in _REPARSE_MODES]
        reports.append(check_links(math).lines())
        for _ in range(2):
            saved = [(node, dict(node.attrs)) for node in math.iter()]
            _mutate(math, rng)
            reports.append(check_links(math).lines())
            for node, attrs in saved:
                node.attrs = attrs
        for text in texts:
            reports.append(check_links(parse_mathml(text)).lines())
            for _ in range(2):
                reparsed = parse_mathml(text)
                _mutate(reparsed, rng)
                reports.append(check_links(reparsed).lines())
    return reports


def test_check_reports_pinned(sum_function_xmath, quantum_xmath):
    """check_links reports, in memory and re-parsed from four serialize
    modes, clean and mutated, are identical to the recorded ones."""
    reports = _check_reports(sum_function_xmath, quantum_xmath)
    kinds = {line.split(":", 1)[0] for lines in reports for line in lines}
    assert kinds == _VIOLATION_KINDS
    assert sum(not lines for lines in reports) > len(reports) // 3
    details = "\n\n".join("\n".join(lines) for lines in reports)
    digest = hashlib.sha256(details.encode("utf-8")).hexdigest()
    assert digest == CHECK_REPORTS_DIGEST


#: Hand-built id shapes the treegen corpus never produces: letter-ending
#: input ids beside the letters a shared source's copies take, and input
#: ids shaped like fresh or wrapper ids.
_ID_SHAPES = (
    # x shows up twice in presentation beside a token whose own xml:id is
    # xa: x's copy skips xa and takes xb.
    "<XMDual><XMApp><XMTok meaning='times'/><XMRef idref='x'/><XMRef idref='xa'/></XMApp>"
    "<XMWrap><XMTok xml:id='x'>x</XMTok><XMRef idref='x'/><XMTok xml:id='xa'>y</XMTok>"
    "</XMWrap></XMDual>",
    # The same with the colliding token first in document order.
    "<XMDual><XMApp><XMTok meaning='times'/><XMRef idref='xa'/><XMRef idref='x'/></XMApp>"
    "<XMWrap><XMTok xml:id='xa'>y</XMTok><XMTok xml:id='x'>x</XMTok><XMRef idref='x'/>"
    "</XMWrap></XMDual>",
    # Two skips in one input (past xa and yb).
    "<XMDual><XMApp><XMTok meaning='times'/><XMRef idref='x'/><XMRef idref='y'/>"
    "<XMRef idref='xa'/><XMRef idref='yb'/></XMApp>"
    "<XMWrap><XMTok xml:id='yb'>w</XMTok><XMTok xml:id='x'>x</XMTok><XMRef idref='x'/>"
    "<XMTok xml:id='y'>y</XMTok><XMRef idref='y'/><XMRef idref='y'/>"
    "<XMTok xml:id='xa'>v</XMTok></XMWrap></XMDual>",
    # x used twice beside xb, which no copy takes: no collision.
    "<XMDual><XMApp><XMTok meaning='times'/><XMRef idref='x'/><XMRef idref='xb'/></XMApp>"
    "<XMWrap><XMTok xml:id='x'>x</XMTok><XMRef idref='x'/><XMTok xml:id='xb'>y</XMTok>"
    "</XMWrap></XMDual>",
    sum_of(bra_ket_chain("p1", 0)),
    sum_of(bra_ket_chain("p1", 3)),
    sum_of(bra_ket_chain("p1", 1), bra_ket_chain("p2", 2)),
    # An input id shaped like a suffixed fresh id (m1.1a).
    "<XMDual><XMApp><XMTok meaning='times'/><XMRef idref='m1.1a'/></XMApp>"
    "<XMWrap><XMTok xml:id='m1.1a'>a</XMTok><XMTok role='MULOP'>*</XMTok>"
    "<XMTok xml:id='m1.1a.b'>b</XMTok></XMWrap></XMDual>",
    "<XMApp><XMTok meaning='plus' role='ADDOP'>+</XMTok><XMTok xml:id='m1.1a'>a</XMTok>"
    "<XMTok>b</XMTok><XMTok>c</XMTok></XMApp>",
    # Input ids shaped like the wrapper ids: the wrappers skip them.
    "<XMApp><XMTok xml:id='m1a'>f</XMTok><XMTok xml:id='m1.2'>x</XMTok></XMApp>",
    "<XMApp><XMTok xml:id='m1.5'>f</XMTok><XMTok xml:id='m1'>x</XMTok></XMApp>",
    "<XMApp><XMTok xml:id='q.1'>f</XMTok><XMTok>x</XMTok><XMTok xml:id='qc'>y</XMTok></XMApp>",
    # An input id equal to another's first content id: refused in parallel.
    "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>a</XMTok>"
    "<XMTok xml:id='x.cmml'>b</XMTok></XMApp>",
)


def _converted(texts):
    """The assembled math element of every text that converts."""
    for text in texts:
        try:
            yield build_parallel(parse_xmath(text))
        except IdCollisionError:
            pass


def test_check_agrees_in_memory_and_reparsed(sum_function_xmath, quantum_xmath):
    """One class rule serves both paths: each tree, clean and mutated,
    gets the same report in memory as re-parsed from every serialize mode."""
    rng = random.Random(20261019)
    trees = [
        build_parallel(parse_xmath(sum_function_xmath), tex="a+F(a,b)"),
        build_parallel(parse_xmath(quantum_xmath), tex="..."),
    ]
    trees += [build_parallel(doc, tex="t") for doc in make_corpus(200, seed=20261019)]
    trees += _converted(_ID_SHAPES)
    compared = 0
    for math in trees:
        saved = [(node, dict(node.attrs)) for node in math.iter()]
        for mutations in range(3):
            if mutations:
                _mutate(math, rng)
            lines = check_links(math).lines()
            for opts in _REPARSE_MODES:
                reparsed = parse_mathml(serialize_mathml(math, opts))
                assert check_links(reparsed).lines() == lines
                compared += 1
            for node, attrs in saved:
                node.attrs = dict(attrs)
    assert compared == 12 * len(trees) == 12 * 214


def test_own_output_of_letter_ending_ids_checks_clean():
    """The id shapes that convert, and ids made only of lowercase letters
    reached twice (x beside xa, t), check clean in memory and re-parsed."""
    texts = _ID_SHAPES + (
        "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>x</XMTok>"
        "<XMRef idref='x'/><XMTok xml:id='xa'>y</XMTok></XMApp>",
        "<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok><XMRef idref='t'/>"
        "<XMTok xml:id='t'>y</XMTok></XMApp>",
    )
    trees = list(_converted(texts))
    assert len(trees) == 14
    for math in trees:
        assert check_links(math).lines() == []
        for opts in _REPARSE_MODES:
            assert check_links(parse_mathml(serialize_mathml(math, opts))).lines() == []


def test_id_collisions_are_located(tmp_path, capsys):
    """Each IdCollisionError is located at the input token whose first id
    is allocated twice, and the command line reports that location."""
    path = tmp_path / "input.xml"
    located = []
    for text in _ID_SHAPES:
        path.write_text(text, encoding="utf-8")
        for build, mode in ((build_parallel, "parallel"), (build_presentation, "pmml")):
            try:
                build(parse_xmath(text))
            except IdCollisionError as err:
                assert err.line == 1 and text.startswith("<XMTok xml:id=", err.col - 1)
                assert main([str(path), "--to", mode]) == 2
                assert capsys.readouterr().err.startswith(f"{path}:1:{err.col}: error: ")
                located.append(err.col)
    assert located == [44]


#: Outcomes of idgen.formulas(2000, seed=1), by ParseError kind,
#: ConversionError type or check result. "missing-xref" counts outputs
#: whose every finding is missing-xref: a source on one side only whose
#: input id extends a linked source's base by letters reads as a copy
#: that lost its xref (the one-sided ambiguity check_links documents).
#: Before wrapper ids skipped issued ids, 110 of the clean outputs were
#: refused with "wrapper id ... collides with a node id".
_TOTALITY_OUTCOMES = {
    "dangling-idref": 302,
    "duplicate-id": 329,
    "ContentWrapError": 321,
    "ReferenceCycleError": 39,
    "clean": 1008,
    "missing-xref": 1,
}


def test_generated_formulas_are_refused_located_or_check_clean():
    """Every formula of the id-collision grammar is a located ParseError,
    a located ConversionError (an IdCollisionError only for a first id
    allocated twice), or output whose report is the same in memory and
    re-parsed from every serialize mode, and clean but for missing-xref."""
    outcomes: Counter[str] = Counter()
    for text in idgen.formulas(2000, seed=1):
        try:
            doc = parse_xmath(text)
        except ParseError as err:
            assert err.line > 0 and err.col > 0
            outcomes[err.kind.value] += 1
            continue
        for build in (build_presentation, build_content):
            try:
                single = build(doc)
            except ConversionError as err:
                assert err.line > 0
            else:
                ids = [node.attrs["id"] for node in single.iter()]
                assert len(set(ids)) == len(ids)
        try:
            math = build_parallel(doc, tex="t")
        except ConversionError as err:
            assert err.line > 0
            assert not isinstance(err, IdCollisionError) or "allocated twice" in err.detail
            outcomes[type(err).__name__] += 1
            continue
        lines = check_links(math).lines()
        for opts in _REPARSE_MODES:
            assert check_links(parse_mathml(serialize_mathml(math, opts))).lines() == lines
        assert all(line.startswith("missing-xref: ") for line in lines), (text, lines)
        outcomes["missing-xref" if lines else "clean"] += 1
    assert outcomes == _TOTALITY_OUTCOMES


def _allocation_record(build) -> str:
    """Registry groups with their ids and xrefs, the issued ids and the
    wrapper ids of one conversion; or the type of the error it raised."""
    try:
        registry, scheme, math = build()
    except IdCollisionError as err:
        return type(err).__name__
    groups = [
        (source, int(branch), [(n.attrs["id"], n.attrs.get("xref")) for n in nodes])
        for (source, branch), nodes in registry.targets.items()
    ]
    wrappers = [math.attrs["id"]] + [
        node.attrs["id"] for node in math.iter() if node.source is None and node is not math
    ]
    return repr((groups, sorted(scheme.issued), wrappers))


def _allocation_records(sum_function_xmath, quantum_xmath):
    docs = [(parse_xmath(sum_function_xmath), "a+F(a,b)"), (parse_xmath(quantum_xmath), "...")]
    docs += [(doc, "t") for doc in make_corpus(300, seed=20261020)]
    docs += [(parse_xmath(text), None) for text in _ID_SHAPES]
    records = []
    for doc, tex in docs:
        vis = mark_visibility(doc)

        def parallel():
            pres, cmml = gen_pmml(doc, vis), gen_cmml(doc, vis)
            scheme = IdScheme.infer(doc)
            registry = build_registry(pres, cmml)
            assign_ids(registry, scheme)
            return registry, scheme, assemble_parallel(pres, cmml, tex, scheme=scheme)

        def presentation():
            pres = gen_pmml(doc, vis)
            scheme = IdScheme.infer(doc)
            registry = build_registry(pmml=pres)
            assign_ids(registry, scheme)
            return registry, scheme, assemble_single(pres, scheme=scheme)

        records.append(_allocation_record(parallel))
        records.append(_allocation_record(presentation))
    return records


#: SHA-256 over _allocation_records(), recorded when wrapper ids began to
#: skip issued ids. Against the digest before it (bdff1530...), only the
#: records of the wrapper-shaped _ID_SHAPES (m1a parallel, m1 in both
#: builds) changed, each from IdCollisionError to its ids; the x/x.cmml
#: shape was appended so that the one refusal left, a first id allocated
#: twice, stays pinned.
ID_ALLOCATION_DIGEST = (
    "b46da952156224e4f64e7d2a9e7d219aaa23131fdab8ef52aa224a0341aab8b4"
)


def test_id_allocation_pinned(sum_function_xmath, quantum_xmath):
    """Ids, xrefs, registry groups, issued ids, wrapper ids and which
    inputs raise IdCollisionError are identical to the recorded ones."""
    records = _allocation_records(sum_function_xmath, quantum_xmath)
    collisions = [i for i, record in enumerate(records) if record == "IdCollisionError"]
    assert collisions == [len(records) - 2]  # x beside x.cmml, parallel
    assert all(record.startswith("(") for i, record in enumerate(records) if i not in collisions)
    digest = hashlib.sha256("\n".join(records).encode("utf-8")).hexdigest()
    assert digest == ID_ALLOCATION_DIGEST
