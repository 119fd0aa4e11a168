from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmathml import (
    MeaningTable,
    NodeKind,
    gen_cmml,
    load_expansion_table,
    mark_visibility,
    parse_xmath,
    token_to_cmml,
)
from xmathml.cmml import KNOWN_CONTENT_ELEMENTS
from xmathml.errors import (
    ArityMismatchError,
    ContentWrapError,
    ConversionError,
    MalformedApplyError,
)
from xmathml.model import SemanticAttrs, XMathNode
from xmathml.parser import MAX_NESTING_DEPTH
from helpers import nested_expansions, parse_mathml, same_shape
from treegen import random_document


def _content_tree(doc, table=None):
    return gen_cmml(doc, mark_visibility(doc), table)


def _expected_content(mathml_text, renames=None):
    math = parse_mathml(mathml_text)
    semantics = math.children[0]
    annotation_xml = next(
        child for child in semantics.children if child.element == "annotation-xml"
    )
    expected = annotation_xml.children[0]
    if renames:
        def rename(node):
            node.element = renames.get(node.element, node.element)
            for child in node.children:
                rename(child)
        rename(expected)
    return expected


def test_sum_function_content_shape(sum_function_doc, sum_function_mathml):
    actual = _content_tree(sum_function_doc)
    expected = _expected_content(sum_function_mathml)
    assert same_shape(actual, expected, ignore_attrs=("id", "xref"))


def test_quantum_content_shape(quantum_doc, quantum_mathml):
    actual = _content_tree(quantum_doc)
    expected = _expected_content(quantum_mathml, renames={"lowupper": "uplimit"})
    assert same_shape(actual, expected, ignore_attrs=("id", "xref"))


def test_single_meaning_token():
    doc = parse_xmath("<XMTok meaning='plus' role='ADDOP'>+</XMTok>")
    tree = _content_tree(doc)
    assert tree.element == "plus"
    assert tree.children == []
    assert tree.text is None


def _tok(text="x", **attrs):
    return XMathNode(NodeKind.TOK, text=text, attrs=SemanticAttrs(**attrs))


def test_token_unknown_meaning_csymbol():
    built = token_to_cmml(_tok("", meaning="quantum-operator-product"))
    assert built.element == "csymbol"
    assert built.attrs == {"cd": "latexml"}
    assert built.text == "quantum-operator-product"


def test_token_plain_identifier():
    built = token_to_cmml(_tok("a", role="ID"))
    assert built.element == "ci"
    assert built.text == "a"


def test_token_upright_greek_prefix():
    assert token_to_cmml(_tok("Ψ", role="ID")).text == "normal-Ψ"
    assert token_to_cmml(_tok("Φ", role="ID", font="normal")).text == "normal-Φ"
    # Italic Greek keeps its glyph.
    assert token_to_cmml(_tok("Ψ", font="italic")).text == "Ψ"


def test_token_caligraphic_identifier():
    assert token_to_cmml(_tok("H", font="caligraphic")).text == "ℋ"


def test_differential_d_content_side():
    built = token_to_cmml(_tok("d", meaning="differential-d", role="DIFFOP"))
    assert built.element == "csymbol"
    assert built.text == "differential-d"


def test_integral_meaning_maps_to_int():
    built = token_to_cmml(_tok("∫", meaning="integral", role="INTOP"))
    assert built.element == "int"


def test_defint_expansion(quantum_doc):
    tree = _content_tree(quantum_doc)
    integral_apply = next(
        node
        for node in tree.iter()
        if node.element == "apply" and node.children[0].element == "int"
    )
    assert [child.element for child in integral_apply.children] == [
        "int",
        "bvar",
        "lowlimit",
        "uplimit",
        "apply",
    ]
    bvar, lowlimit, uplimit = integral_apply.children[1:4]
    assert [c.element for c in bvar.children] == ["ci"]
    assert bvar.children[0].text == "x"
    assert lowlimit.children[0].text == "a"
    assert uplimit.children[0].text == "b"
    inner = integral_apply.children[4]
    assert [c.text for c in inner.children] == ["F", "x"]


def test_expansion_slots_match_direct_generation(quantum_doc):
    # Each slot subtree equals generating the same argument outside the
    # template.
    doc = quantum_doc
    vis = mark_visibility(doc)
    tree = gen_cmml(doc, vis)
    duals = [n for n in doc.nodes if n.kind is NodeKind.DUAL]
    defint_app = duals[1].children[0]
    args = defint_app.children[1:]
    integral_apply = next(
        node
        for node in tree.iter()
        if node.element == "apply" and node.children[0].element == "int"
    )
    from xmathml.cmml import ContentWalk

    walk = ContentWalk(doc, vis, MeaningTable.default())
    for slot_index, produced in (
        (3, integral_apply.children[1].children[0]),  # bvar <- slot4
        (0, integral_apply.children[2].children[0]),  # lowlimit <- slot1
        (1, integral_apply.children[3].children[0]),  # uplimit <- slot2
        (2, integral_apply.children[4]),  # integrand <- slot3
    ):
        direct = walk.walk(args[slot_index], duals[1])
        assert same_shape(direct, produced, ignore_attrs=("id", "xref"))


def test_identity_template_equals_plain_apply():
    text = (
        "<XMApp><XMTok meaning='custom-op' role='FUNCTION'>c</XMTok>"
        "<XMTok>x</XMTok></XMApp>"
    )
    doc = parse_xmath(text)
    plain = _content_tree(doc)
    table = MeaningTable.default().extended(
        load_expansion_table("custom-op 1 (apply head slot1)")
    )
    expanded = _content_tree(parse_xmath(text), table)
    assert same_shape(plain, expanded)
    plain_nodes = list(plain.iter())
    expanded_nodes = list(expanded.iter())
    assert [n.source.index for n in plain_nodes] == [
        n.source.index for n in expanded_nodes
    ]


def test_arity_mismatch(quantum_xmath):
    mutated = quantum_xmath.replace('<XMRef idref="m2.4"/>\n    </XMApp>', "</XMApp>", 1)
    assert mutated != quantum_xmath
    doc = parse_xmath(mutated)
    defint_app = next(
        n for n in doc.nodes if n.kind is NodeKind.DUAL
        and n.children[0].kind is NodeKind.APP
        and len(n.children[0].children) == 4
    ).children[0]
    assert len(defint_app.children) - 1 == 3  # oracle: plain length check
    with pytest.raises(ArityMismatchError):
        _content_tree(doc)


def test_content_wrap_rejected():
    doc = parse_xmath("<XMWrap><XMTok>x</XMTok></XMWrap>")
    with pytest.raises(ContentWrapError) as excinfo:
        _content_tree(doc)
    assert "XMWrap" in str(excinfo.value)


def test_content_wrap_error_names_node():
    doc = parse_xmath("<XMApp><XMTok>f</XMTok><XMWrap xml:id='w1'/></XMApp>")
    with pytest.raises(ContentWrapError) as excinfo:
        _content_tree(doc)
    assert "w1" in str(excinfo.value)


def test_empty_app_raises():
    with pytest.raises(MalformedApplyError):
        _content_tree(parse_xmath("<XMApp/>"))


def test_nested_expansions_too_deep_are_located():
    """Two nested applications of a 150-deep template convert; ten pass
    the interpreter's stack and raise a typed error at one of them."""
    rule, text = nested_expansions(2, 150)
    table = MeaningTable.default().extended(load_expansion_table(rule))
    assert _content_tree(parse_xmath(text), table).element == "a"
    _, text = nested_expansions(10, 150)
    with pytest.raises(ConversionError) as excinfo:
        _content_tree(parse_xmath(text), table)
    error = excinfo.value
    assert "expansions nested too deeply" in str(error)
    assert error.line == 1
    assert text.startswith("<XMApp", error.col - 1)


def test_table_loader_roundtrip():
    rules = load_expansion_table(
        "# comment line\n"
        "\n"
        "hack-definite-integral 4 "
        "(apply head (bvar slot4) (lowlimit slot1) (uplimit slot2) slot3)\n"
    )
    rule = rules["hack-definite-integral"]
    assert rule.arity == 4
    assert rule.template[0] == "elem" and rule.template[1] == "apply"


def test_table_loader_errors():
    with pytest.raises(ValueError):
        load_expansion_table("foo two (apply head)")
    with pytest.raises(ValueError):
        load_expansion_table("foo 2 (apply head slot1)")  # slot2 missing
    with pytest.raises(ValueError):
        load_expansion_table("foo 1 (apply head slot1) junk")
    with pytest.raises(ValueError):
        load_expansion_table("foo 1 (apply head slot1")  # unbalanced


def test_table_loader_caps_template_nesting():
    """Templates nest as deep as XMath input may, and no deeper."""
    at_cap = "(apply " * MAX_NESTING_DEPTH + "slot1" + ")" * MAX_NESTING_DEPTH
    assert load_expansion_table(f"deep 1 {at_cap}")["deep"].arity == 1
    for depth in (MAX_NESTING_DEPTH + 1, 2000):
        template = "(apply " * depth + "slot1" + ")" * depth
        with pytest.raises(ValueError) as excinfo:
            load_expansion_table(f"# comment\ndeep 1 {template}")
        assert str(excinfo.value) == f"line 2: nesting deeper than {MAX_NESTING_DEPTH}"


@pytest.mark.parametrize(
    "template, name",
    [("(a<b slot1)", "a<b"), ("(apply 1x slot1)", "1x"), ("(a&b slot1)", "a&b")],
)
def test_table_loader_refuses_bad_element_names(template, name):
    with pytest.raises(ValueError) as excinfo:
        load_expansion_table(f"foo 1 {template}")
    assert str(excinfo.value) == f"line 1: {name!r} is not an element name"


def test_table_loader_accepts_element_name_characters():
    rules = load_expansion_table("foo 1 (m.a-b_1 (_c slot1) x.y)")
    assert rules["foo"].template == (
        "elem",
        "m.a-b_1",
        (("elem", "_c", (("slot", 1),)), ("elem", "x.y", ())),
    )


def test_default_table_is_shared_and_read_only():
    first, second = MeaningTable.default(), MeaningTable.default()
    assert first == second
    with pytest.raises(TypeError):
        KNOWN_CONTENT_ELEMENTS["plus"] = "minus"
    with pytest.raises(TypeError):
        first.expansions["x"] = first.expansions["hack-definite-integral"]
    assert KNOWN_CONTENT_ELEMENTS["plus"] == "plus"
    # Neither the table's field nor a rule's can be assigned or deleted.
    rule = first.expansions["hack-definite-integral"]
    for record, field in ((first, "expansions"), (rule, "arity"), (rule, "template")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert rule.arity == 4 and second.expansions["hack-definite-integral"] is rule


def test_user_rules_override_builtin():
    table = MeaningTable.default().extended(
        load_expansion_table("hack-definite-integral 2 (apply head slot1 slot2)")
    )
    assert table.expansions["hack-definite-integral"].arity == 2


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_content_invariants(seed):
    doc = random_document(seed=seed)
    vis = mark_visibility(doc)
    tree = gen_cmml(doc, vis)
    allowed = (
        {"apply", "ci", "csymbol", "bvar", "lowlimit", "uplimit"}
        | set(KNOWN_CONTENT_ELEMENTS.values())
    )
    token_yield: dict[int, int] = {}
    for node in tree.iter():
        assert node.element in allowed
        assert vis.flags(node.origin)[0]
        if node.element != "apply" and not node.children:
            token_yield[node.origin.index] = token_yield.get(node.origin.index, 0) + 1
    for node in doc.nodes:
        if node.kind is NodeKind.TOK and vis.flags(node)[0]:
            assert token_yield.get(node.index, 0) >= 1
