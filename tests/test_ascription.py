from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    ConversionError,
    NodeKind,
    ReferenceCycleError,
    ascribe,
    build_content,
    build_parallel,
    build_presentation,
    check_links,
    gen_cmml,
    gen_pmml,
    mark_visibility,
    parse_xmath,
    serialize_mathml,
)
from xmathml.cli import main
from helpers import (
    copied_ref_chains,
    dual_ref_chain,
    nearest_dual_ancestor,
    outcomes_under_rising_limits,
    parse_mathml,
)
from treegen import random_document


def _physical(doc, vis, current, target_is_container):
    """ascribe as a walk calls it when it reached ``current`` without a ref."""
    container = nearest_dual_ancestor(doc, current)
    return ascribe(doc, vis, current, container, target_is_container)


def _first_dual(doc):
    return next(node for node in doc.nodes if node.kind is NodeKind.DUAL)


def test_presentation_only_paren_goes_to_dual(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    dual = _first_dual(doc)
    paren = next(node for node in doc.nodes if node.text == "(")
    # Current operator F is itself shown in presentation, so the paren
    # belongs to the dual as a whole.
    assert _physical(doc, vis, paren, False) is dual


def test_hidden_operator_claims_delimiters(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    qop = next(n for n in doc.nodes if n.attrs.meaning == "quantum-operator-product")
    langle = next(node for node in doc.nodes if node.text == "⟨")
    assert _physical(doc, vis, langle, False) is qop


def test_shared_token_is_its_own_source(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    a = doc.root.children[1]
    assert a.text == "a"
    assert _physical(doc, vis, a, False) is a


def test_container_goes_to_enclosing_dual(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    dual = _first_dual(doc)
    pres_app = dual.children[1]  # generates the mrow wrapping F(a,b)
    assert _physical(doc, vis, pres_app, True) is dual


def test_container_without_dual_keeps_current(sum_function_doc):
    doc = sum_function_doc
    vis = mark_visibility(doc)
    assert _physical(doc, vis, doc.root, True) is doc.root


def test_content_wrappers_go_to_defint_dual(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
    defint_dual = duals[1]
    content_app = defint_dual.children[0]
    # The bvar/lowlimit/uplimit containers are generated while expanding
    # that application; the container rule hands them to the dual.
    assert _physical(doc, vis, content_app, True) is defint_dual


def test_rule_two_beats_containers(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
    # x (m2.4) sits inside the defint dual and is shared via a ref; the
    # token is its own source no matter the container handed in.
    x = doc.id_index["m2.4"]
    for container in (None, duals[0], duals[1]):
        assert ascribe(doc, vis, x, container, False) is x


def test_traversal_container_overrides_physical(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
    inner_dual = doc.id_index["m2.3"]
    f_app = inner_dual.children[1]
    # Physically the nearest dual is the inner one; a walk that arrived
    # through the outer dual's ref would pass the outer container.
    assert _physical(doc, vis, f_app, True) is inner_dual
    assert ascribe(doc, vis, f_app, duals[1], True) is duals[1]


def test_determinism(quantum_doc):
    doc = quantum_doc
    vis = mark_visibility(doc)
    langle = next(node for node in doc.nodes if node.text == "⟨")
    results = {_physical(doc, vis, langle, False) for _ in range(5)}
    assert len(results) == 1


def test_no_operator_falls_back_to_container():
    doc = parse_xmath(
        "<XMDual><XMTok meaning='plus'/>"
        "<XMWrap><XMTok role='OPEN'>(</XMTok></XMWrap></XMDual>"
    )
    vis = mark_visibility(doc)
    paren = doc.root.children[1].children[0]
    # Content branch is a bare token: no current operator, so the dual wins.
    assert _physical(doc, vis, paren, False) is doc.root


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_totality_over_generated_trees(seed):
    doc = random_document(seed=seed)
    vis = mark_visibility(doc)
    # The generators call ascribe for every produced node; every source
    # must come out set, whatever the tree shape.
    pres = gen_pmml(doc, vis)
    cmml = gen_cmml(doc, vis)
    for node in list(pres.iter()) + list(cmml.iter()):
        assert node.source is not None


@pytest.mark.parametrize(
    "text, generate",
    [
        # Self-ref in operator position: the presentation walk derefs it.
        ('<XMApp><XMRef xml:id="r" idref="r"/><XMTok>a</XMTok></XMApp>', gen_pmml),
        # A dual's content child refers back to the dual.
        ('<XMDual xml:id="d"><XMRef idref="d"/><XMTok>a</XMTok></XMDual>', gen_cmml),
        # A dual's presentation child refers back to the dual.
        (
            '<XMDual xml:id="d"><XMTok meaning="x"/><XMRef idref="d"/></XMDual>',
            gen_pmml,
        ),
        # Ref chains chased in one step: two refs naming each other, three
        # refs in a ring, and a dual's content child leading back to the
        # dual through two refs.
        (
            '<XMApp><XMTok>a</XMTok><XMRef xml:id="p" idref="q"/>'
            '<XMRef xml:id="q" idref="p"/></XMApp>',
            gen_pmml,
        ),
        (
            '<XMApp><XMTok>a</XMTok><XMRef xml:id="c" idref="a"/>'
            '<XMRef xml:id="b" idref="c"/><XMRef xml:id="a" idref="b"/></XMApp>',
            gen_cmml,
        ),
        (
            '<XMApp><XMTok>a</XMTok><XMDual xml:id="d"><XMRef xml:id="r" idref="s"/>'
            '<XMTok>b</XMTok></XMDual><XMRef xml:id="s" idref="d"/></XMApp>',
            gen_cmml,
        ),
    ],
)
def test_reference_cycle_is_located(text, generate):
    doc = parse_xmath(text)
    with pytest.raises(ReferenceCycleError) as excinfo:
        generate(doc, mark_visibility(doc))
    # The error names the ref that closes the cycle.
    assert (excinfo.value.line, excinfo.value.col) == (1, text.index("<XMRef") + 1)
    with pytest.raises(ReferenceCycleError):
        build_parallel(doc)


@pytest.mark.parametrize("build", [build_parallel, build_presentation, build_content])
def test_cycle_entered_through_a_third_ref_is_located(build):
    # r1 leads to t, whose ref ra leads to u, whose ref r2 leads back to t:
    # r2 closes the cycle, though ra is the first ref the walk meets twice.
    text = (
        "<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok>"
        "<XMRef xml:id='r1' idref='t'/>"
        "<XMApp xml:id='t'><XMTok meaning='f'/><XMRef xml:id='ra' idref='u'/></XMApp>"
        "<XMApp xml:id='u'><XMTok meaning='g'/><XMRef xml:id='r2' idref='t'/></XMApp>"
        "</XMApp>"
    )
    with pytest.raises(ReferenceCycleError) as excinfo:
        build(parse_xmath(text))
    assert (excinfo.value.line, excinfo.value.col) == (1, 196)
    assert text.index("<XMRef xml:id='r2'") + 1 == 196


#: msub(x, msup(ref, y)) whose ref leads back to the msub: the msup fuses
#: with the msub it refs, whose script holds the msup again.
_FUSED_BASE_CYCLE = (
    "<XMApp xml:id='p0'><XMTok role='SUBSCRIPTOP' scriptpos='post1'/>"
    "<XMTok>x</XMTok><XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>"
    "<XMRef idref='p0'/><XMTok>y</XMTok></XMApp></XMApp>"
)


@pytest.mark.parametrize(
    "build, mode",
    [(build_parallel, "parallel"), (build_presentation, "pmml"), (build_content, "cmml")],
)
def test_cycle_through_fused_base_is_located(build, mode, tmp_path, capsys):
    """A ref that an msubsup fuses through and that leads back to the msub
    closes a cycle at that ref, in every mode and in the CLI."""
    col = _FUSED_BASE_CYCLE.index("<XMRef") + 1
    with pytest.raises(ReferenceCycleError) as excinfo:
        build(parse_xmath(_FUSED_BASE_CYCLE))
    assert (excinfo.value.line, excinfo.value.col) == (1, col) == (1, 135)
    source = tmp_path / "cycle.xml"
    source.write_text(_FUSED_BASE_CYCLE, encoding="utf-8")
    assert main([str(source), "--to", mode]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{source}:1:{col}: error: reference cycle via idref\n"


def _fused_ref_chain(levels: int) -> str:
    """A dual whose presentation is an msup over a ref to the msub s{levels};
    each s{k} is (msup over a ref to s{k-1})_i, and s1 is x_i. Every level
    fuses through a ref; the msubs sit in the content branch."""
    sub = "<XMTok role='SUBSCRIPTOP' scriptpos='post1'/>"
    sup = "<XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>"
    subs = [f"<XMApp xml:id='s1'>{sub}<XMTok>x</XMTok><XMTok>i</XMTok></XMApp>"]
    for k in range(2, levels + 1):
        subs.append(
            f"<XMApp xml:id='s{k}'>{sub}<XMApp>{sup}<XMRef idref='s{k - 1}'/>"
            "<XMTok>a</XMTok></XMApp><XMTok>i</XMTok></XMApp>"
        )
    content = "<XMApp><XMTok meaning='list'/>" + "".join(subs) + "</XMApp>"
    shown = f"<XMApp>{sup}<XMRef idref='s{levels}'/><XMTok>a</XMTok></XMApp>"
    return f"<XMDual>{content}{shown}</XMDual>"


def test_fused_ref_chain_too_deep_is_located():
    """Past the interpreter's stack, fusion through refs refuses with a
    ConversionError at an ``<XMRef``, never a RecursionError, under limits
    rising until the chain converts."""
    text = _fused_ref_chain(120)
    for build in (build_parallel, build_presentation):
        *refused, math = outcomes_under_rising_limits(lambda: build(parse_xmath(text)))
        assert refused and not isinstance(math, Exception), (build.__name__, math)
        assert build is not build_parallel or check_links(math).ok
        for error in refused:
            assert isinstance(error, ConversionError), (build.__name__, error)
            assert "refs nested too deeply to follow" in str(error)
            assert error.line == 1 and text.startswith("<XMRef", error.col - 1)


def _ref_chain(links: int) -> str:
    """A sum whose first term is a ref leading to the token ``r0`` through
    ``links`` refs, each a later term of the sum, so the walks meet the
    far end of the chain first."""
    refs = "".join(
        f"<XMRef xml:id='r{k}' idref='r{k - 1}'/>" for k in range(links, 0, -1)
    )
    plus = "<XMTok role='ADDOP' meaning='plus'>+</XMTok>"
    return f"<XMApp>{plus}{refs}<XMTok xml:id='r0'>x</XMTok></XMApp>"


def test_ref_chain_is_chased_in_one_step(monkeypatch):
    # Longer than the interpreter's default recursion limit of 1,000.
    doc = parse_xmath(_ref_chain(2_000))
    steps = []
    one_step = doc.resolve_ref

    def counted(ref):
        steps.append(ref)
        return one_step(ref)

    monkeypatch.setattr(doc, "resolve_ref", counted)
    math = build_parallel(doc)
    # Marking follows each link at most once per branch and the two walks
    # together once more, not once for every ref before it in the chain.
    assert len(steps) <= 3 * 2_000
    assert check_links(math).ok
    text = serialize_mathml(math)
    assert text.count(">x</mi>") == 2_001
    assert check_links(parse_mathml(text)).ok


def test_dual_ref_chain_converts_and_checks_clean():
    math = build_parallel(parse_xmath(dual_ref_chain(150)))
    assert check_links(math).ok
    text = serialize_mathml(math)
    assert text.count(">f</mi>") == 150
    assert check_links(parse_mathml(text)).ok


@pytest.mark.parametrize("links", [300, 1_000])
def test_dual_ref_chain_too_deep_is_located(links):
    """Each link costs several frames of a walk; past the interpreter's
    stack the error is typed and names a ref of the chain (which one
    depends on the stack)."""
    text = dual_ref_chain(links)
    with pytest.raises(ConversionError) as excinfo:
        build_parallel(parse_xmath(text))
    error = excinfo.value
    assert "refs nested too deeply to follow" in str(error)
    assert error.line == 1
    assert text.startswith("<XMRef", error.col - 1)


@pytest.mark.parametrize("depths", [(100, 100, 195), (150, 60, 190), (190, 50, 195)])
def test_copied_ref_too_deep_is_located(depths, tmp_path, capsys):
    """A ref whose subtree was made before copies it under the same
    guard as a first visit. Under recursion limits rising from the test's
    own depth, so that the stack runs out at every depth of the walks and
    of the copies however many frames the interpreter spends on a level,
    each mode and the CLI refuse with a ConversionError located at an
    ``<XMRef`` until a limit lets them convert; never a RecursionError.
    Each copy here is 200 or more levels deep, at least one frame each, so
    the limits' 50-frame steps cannot pass over the depths at which a copy
    runs out."""
    text = copied_ref_chains(*depths)
    for build in (build_parallel, build_presentation, build_content):
        *refused, math = outcomes_under_rising_limits(lambda: build(parse_xmath(text)))
        assert refused and not isinstance(math, Exception), (build.__name__, math)
        assert build is not build_parallel or check_links(math).ok
        for error in refused:
            assert isinstance(error, ConversionError), (build.__name__, error)
            assert "refs nested too deeply to follow" in str(error)
            assert error.line == 1 and text.startswith("<XMRef", error.col - 1)
    source = tmp_path / "copied.xml"
    source.write_text(text, encoding="utf-8")
    *refused, converted = outcomes_under_rising_limits(
        lambda: (main([str(source)]), capsys.readouterr()),
        done=lambda outcome: isinstance(outcome, tuple) and outcome[0] == 0,
    )
    assert refused and isinstance(converted, tuple) and converted[0] == 0, converted
    # The output nests deeper than check's reader allows (ROADMAP item 2).
    assert converted[1].out.startswith("<math") and converted[1].err == ""
    for outcome in refused:
        assert isinstance(outcome, tuple) and outcome[0] == 2, outcome
        captured = outcome[1]
        assert captured.out == ""
        assert captured.err.startswith(f"{source}:1:")
        col, rest = captured.err[len(f"{source}:1:") :].split(":", 1)
        assert rest.startswith(" error: refs nested too deeply to follow")
        assert text.startswith("<XMRef", int(col) - 1)
