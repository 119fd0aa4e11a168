"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail
line per criterion.
"""

from __future__ import annotations

import hashlib
import time

from xmathml import (
    Branch,
    ConversionError,
    EntityMode,
    NodeKind,
    ParseError,
    SerializeOptions,
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
from xmathml.cmml import ContentWalk
from xmathml.pmml import PresentationWalk
import idgen
from conftest import FIXTURES
from helpers import (
    assert_isomorphic,
    nearest_dual_ancestor,
    oracle_agrees,
    parse_mathml,
    same_shape,
    serialize_xmath,
    structurally_equal,
)
from sharegen import shared_documents

GOLDEN = FIXTURES.parent.parent / "perfbench" / "golden"


def _report(name: str) -> None:
    print(f"ACCEPTANCE PASS: {name}")


def test_golden_sum_function(sum_function_xmath, sum_function_mathml):
    """Full pipeline on the a+F(a,b) fixture, isomorphic to the published form."""
    def run() -> str:
        doc = parse_xmath(sum_function_xmath)
        math = build_parallel(doc, tex="a+F(a,b)", display="block")
        return serialize_mathml(math)

    run()  # warm-up outside the timed window
    started = time.perf_counter()
    output = run()
    elapsed = time.perf_counter() - started
    assert_isomorphic(output, sum_function_mathml)
    assert elapsed < 0.100, f"pipeline took {elapsed * 1000:.1f} ms"
    _report(f"golden sum_function (isomorphic, {elapsed * 1000:.1f} ms)")


def test_golden_quantum_defint(quantum_xmath, quantum_mathml):
    """Transfix + pragmatic-expansion fixture, isomorphic to the published
    form after the two documented normalizations (the uplimit element name
    and letter-suffix order, which the isomorphism absorbs)."""
    def run() -> str:
        doc = parse_xmath(quantum_xmath)
        math = build_parallel(doc, tex="...")
        return serialize_mathml(math)

    run()
    started = time.perf_counter()
    output = run()
    elapsed = time.perf_counter() - started
    assert_isomorphic(output, quantum_mathml, rename_elements={"lowupper": "uplimit"})
    assert elapsed < 0.100, f"pipeline took {elapsed * 1000:.1f} ms"
    _report(f"golden quantum_defint (isomorphic, {elapsed * 1000:.1f} ms)")


def _subtree_spans(doc):
    spans = {}

    def walk(node):
        end = node.index
        for child in node.children:
            end = max(end, walk(child))
        spans[node.index] = (node.index, end)
        return end

    walk(doc.root)
    return spans


def _depth(doc):
    def measure(node):
        return 1 + max((measure(child) for child in node.children), default=0)

    return measure(doc.root)


def test_corpus_is_representative(corpus):
    """The random corpus really exercises nested duals and cross-branch refs."""
    assert len(corpus) >= 1000
    assert all(len(doc.nodes) <= 40 for doc in corpus)
    assert all(_depth(doc) <= 7 for doc in corpus)  # root plus six levels
    nested_duals = 0
    cross_branch_refs = 0
    for doc in corpus:
        duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
        if any(nearest_dual_ancestor(doc, d) is not None for d in duals):
            nested_duals += 1
        spans = _subtree_spans(doc)
        found = False
        for node in doc.nodes:
            if node.kind is not NodeKind.REF:
                continue
            target = doc.resolve_ref(node)
            for dual in duals:
                for mine, theirs in ((0, 1), (1, 0)):
                    lo, hi = spans[dual.children[mine].index]
                    t_lo, t_hi = spans[dual.children[theirs].index]
                    if lo <= node.index <= hi and t_lo <= target.index <= t_hi:
                        found = True
        if found:
            cross_branch_refs += 1
    assert nested_duals >= 50, nested_duals
    assert cross_branch_refs >= 50, cross_branch_refs
    _report(
        f"corpus shape ({len(corpus)} trees, {nested_duals} with nested duals, "
        f"{cross_branch_refs} with cross-branch refs)"
    )


def test_visibility_oracle_equivalence(corpus):
    """Marking agrees with brute-force path enumeration on every tree."""
    started = time.perf_counter()
    agreements = 0
    for doc in corpus:
        assert oracle_agrees(doc, mark_visibility(doc))
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == len(corpus)
    assert elapsed < 10.0, f"suite took {elapsed:.2f} s"
    _report(
        f"visibility oracle equivalence ({agreements}/{len(corpus)}, {elapsed:.2f} s)"
    )


def test_link_contract_on_corpus(corpus):
    """Every parallel conversion passes the link checker with no findings."""
    clean = 0
    for doc in corpus:
        math = build_parallel(doc, tex="t")
        report = check_links(math)
        assert report.ok, report.lines()
        clean += 1
    assert clean == len(corpus)
    _report(f"link contract ({clean}/{len(corpus)} empty reports)")


def test_ascription_spot_checks(sum_function_xmath, quantum_xmath):
    """The five documented (target, source) pairs hold exactly."""
    doc1 = parse_xmath(sum_function_xmath)
    vis1 = mark_visibility(doc1)
    pres1 = gen_pmml(doc1, vis1)
    dual1 = next(n for n in doc1.nodes if n.kind is NodeKind.DUAL)

    # 1. The "(" operator token belongs to the dual (F is not hidden).
    paren = next(n for n in pres1.iter() if n.element == "mo" and n.text == "(")
    assert paren.source is dual1

    # 2. The top-level "a" identifier is its own source.
    a_mi = next(n for n in pres1.iter() if n.element == "mi" and n.text == "a")
    assert a_mi.source is doc1.root.children[1]

    # 3. The row wrapping F(a,b) belongs to the dual.
    f_row = next(
        n
        for n in pres1.iter()
        if n.element == "mrow" and n.children and n.children[0].text == "F"
    )
    assert f_row.source is dual1

    doc2 = parse_xmath(quantum_xmath)
    vis2 = mark_visibility(doc2)
    pres2 = gen_pmml(doc2, vis2)
    cmml2 = gen_cmml(doc2, vis2)

    # 4. The left angle bracket manifests the hidden transfix operator.
    qop = next(
        n for n in doc2.nodes if n.attrs.meaning == "quantum-operator-product"
    )
    langle = next(n for n in pres2.iter() if n.text == "⟨")
    assert langle.source is qop

    # 5. The bvar container belongs to the integral's dual, not the operator.
    duals2 = [n for n in doc2.nodes if n.kind is NodeKind.DUAL]
    defint_dual = duals2[1]
    bvar = next(n for n in cmml2.iter() if n.element == "bvar")
    assert bvar.source is defint_dual

    _report("ascription spot-checks (5/5 pairs)")


def _built_or_refused(build, doc):
    try:
        return build(doc)
    except ConversionError:
        return None


def _consistency_docs(corpus) -> tuple[list, list]:
    """The generated documents: the random corpus, then the idgen and
    sharegen formulas that parse. Then every XMath fixture and golden."""
    generated = list(corpus)
    for text in idgen.formulas(300, seed=1) + shared_documents(30):
        try:
            generated.append(parse_xmath(text))
        except ParseError:
            pass
    paths = [
        path for folder in (FIXTURES, GOLDEN) for path in sorted(folder.glob("*.xmath.xml"))
    ]
    return generated, [parse_xmath(path.read_text("utf-8")) for path in paths]


def test_fine_to_coarse_consistency(corpus):
    """Each single-branch output is a projection of the parallel output.

    Over the corpus, idgen and sharegen formulas and every XMath fixture
    and golden: presentation-only output equals the parallel presentation
    tree ids included (xrefs aside), under the same ``math`` id; content-only
    output equals the parallel content tree ignoring ids and xrefs, since
    alone it numbers fresh ids in content order, not after presentation;
    and an input refused in either single mode is refused in parallel too.
    """
    generated, fixtures = _consistency_docs(corpus)
    docs = generated + fixtures
    matches = 0
    for doc in docs:
        parallel = _built_or_refused(build_parallel, doc)
        presentation = _built_or_refused(build_presentation, doc)
        content = _built_or_refused(build_content, doc)
        if presentation is None or content is None:
            assert parallel is None, serialize_xmath(doc)
        if parallel is None:
            continue
        semantics = parallel.children[0]
        assert presentation.attrs["id"] == parallel.attrs["id"]
        assert same_shape(
            presentation.children[0], semantics.children[0], ignore_attrs=("xref",)
        )
        assert same_shape(
            content.children[0],
            semantics.children[1].children[0],
            ignore_attrs=("id", "xref"),
        )
        matches += 1
    # The 57 generated documents refused in parallel: 51 also by content
    # alone, 5 also by both single modes, 1 also by presentation alone.
    # Every fixture and golden builds in every mode.
    assert (matches, len(generated)) == (1_190 + len(fixtures), 1_247)
    _report(f"fine-to-coarse consistency ({matches}/{len(docs)} built in every mode)")


def test_walk_groups_agree_with_build_registry(corpus):
    """The groups a generator walk fills as it makes nodes, which the
    ``build_*`` functions link, are the groups ``build_registry`` finds in
    the finished tree: the same keys in the same order, holding the same
    node objects in the same order."""
    compared = 0
    generated, fixtures = _consistency_docs(corpus)
    for doc in generated + fixtures:
        vis = mark_visibility(doc)
        for walk in (PresentationWalk(doc, vis), ContentWalk(doc, vis)):
            try:
                tree = walk.walk(doc.root, None)
            except ConversionError:
                continue
            trees = (tree, None) if walk.branch is Branch.PRESENTATION else (None, tree)
            expected = build_registry(*trees).groups[walk.branch]
            # Lists of TargetNode compare their items by identity.
            assert list(walk.groups.items()) == list(expected.items())
            compared += 1
    # 1,247 generated documents: 6 refused by the presentation walk, 56 by
    # content. No fixture or golden is refused.
    assert (len(generated), compared) == (1_247, 2 * (1_247 + len(fixtures)) - 6 - 56)
    _report(f"walk groups agree with build_registry ({compared} trees)")


def test_round_trip_corpus(corpus):
    """parse-serialize-parse identity for inputs and outputs, both modes."""
    checked = 0
    modes = (
        SerializeOptions(),
        SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS),
        SerializeOptions(pretty=True),
        SerializeOptions(pretty=True, entity_mode=EntityMode.NUMERIC_REFS),
    )
    for doc in corpus:
        again = parse_xmath(serialize_xmath(doc))
        assert structurally_equal(again.root, doc.root)
        math = build_parallel(doc, tex="t")
        for opts in modes:
            text = serialize_mathml(math, opts)
            assert same_shape(parse_mathml(text), math)
        checked += 1
    assert checked == len(corpus)
    _report(f"round-trip ({checked}/{len(corpus)}, all entity/pretty modes)")


#: SHA-256 of the serialized parallel output, UTF-8 then numeric-reference
#: mode for every formula, ids and xrefs included. The goldens compare only
#: up to id renaming; these catch any changed byte.
OUTPUT_SHA256 = {
    "sum_function": "0b6dbccd6b02be11e263820812722bed47e1d25294b149997965280fef27da07",
    "quantum_defint": "2197dc74ca0e587006e027af62819b24c004d9bc2512eec12856b48ca548f240",
    "corpus": "c2407eb39b237e3138a03f9d49fcaf22bb36510818916f8f262af8fca00c8c77",
}


_PLAIN_MODES = (
    SerializeOptions(),
    SerializeOptions(entity_mode=EntityMode.NUMERIC_REFS),
)

#: Indented and namespace-prefixed output, each in both entity modes.
_PRETTY_PREFIXED_MODES = (
    SerializeOptions(pretty=True),
    SerializeOptions(pretty=True, entity_mode=EntityMode.NUMERIC_REFS),
    SerializeOptions(namespace_prefix="m"),
    SerializeOptions(namespace_prefix="m", entity_mode=EntityMode.NUMERIC_REFS),
)


def _output_digest(conversions, modes=_PLAIN_MODES) -> str:
    digest = hashlib.sha256()
    for doc, options in conversions:
        math = build_parallel(doc, **options)
        for opts in modes:
            digest.update(serialize_mathml(math, opts).encode("utf-8"))
    return digest.hexdigest()


def test_output_bytes_pinned(sum_function_xmath, quantum_xmath, corpus):
    """Fixture and corpus outputs are byte-identical to the recorded ones."""
    sum_options = {"tex": "a+F(a,b)", "display": "block"}
    digests = {
        "sum_function": _output_digest(
            [(parse_xmath(sum_function_xmath), sum_options)]
        ),
        "quantum_defint": _output_digest(
            [(parse_xmath(quantum_xmath), {"tex": "..."})]
        ),
        "corpus": _output_digest((doc, {"tex": "t"}) for doc in corpus),
    }
    assert digests == OUTPUT_SHA256
    _report(f"output bytes pinned ({len(corpus) + 2} formulas, 2 entity modes)")


#: SHA-256 of the same conversions as ``OUTPUT_SHA256`` in the pretty and
#: namespace-prefixed modes of ``_PRETTY_PREFIXED_MODES``.
PRETTY_PREFIXED_OUTPUT_SHA256 = {
    "sum_function": "3ea1fe2a4a05217d56247181f36976aa884f107b8805bf4ea965f78eb2309d03",
    "quantum_defint": "13366c8978455e2dd8ed53046587dfbc90cffa55ee3eec31015d42f346af50b2",
    "corpus": "35ab21cb9f68b1bef5c409f05ff126eb502a72e62437dea822b402fedd278b19",
}


def test_output_bytes_pinned_pretty_prefixed(sum_function_xmath, quantum_xmath, corpus):
    """Pretty and prefixed outputs are byte-identical to the recorded ones."""
    modes = _PRETTY_PREFIXED_MODES
    sum_options = {"tex": "a+F(a,b)", "display": "block"}
    digests = {
        "sum_function": _output_digest(
            [(parse_xmath(sum_function_xmath), sum_options)], modes
        ),
        "quantum_defint": _output_digest(
            [(parse_xmath(quantum_xmath), {"tex": "..."})], modes
        ),
        "corpus": _output_digest(((doc, {"tex": "t"}) for doc in corpus), modes),
    }
    assert digests == PRETTY_PREFIXED_OUTPUT_SHA256
    _report(f"pretty/prefixed output bytes pinned ({len(corpus) + 2} formulas, 4 modes)")
