from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import xmathml
from xmathml import ConversionError, build_parallel, build_presentation, parse_xmath
from xmathml.cli import main
from helpers import (
    assert_isomorphic,
    dual_ref_chain,
    find,
    nested_expansions,
    parse_mathml,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parallel_matches_published_form(
    tmp_path, capsys, sum_function_xmath, sum_function_mathml
):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    code, out, err = _run(
        capsys, source, "--to", "parallel", "--tex", "a+F(a,b)", "--display", "block"
    )
    assert code == 0, err
    assert_isomorphic(out, sum_function_mathml)


def test_display_derived_without_flag(tmp_path, capsys, quantum_xmath):
    source = _write(tmp_path, "input.xml", quantum_xmath)
    code, out, _ = _run(capsys, source, "--to", "parallel", "--tex", "...")
    assert code == 0
    assert parse_mathml(out).attrs["display"] == "block"


def test_pmml_mode_single_token(tmp_path, capsys):
    source = _write(tmp_path, "tok.xml", "<XMTok role='ID'>a</XMTok>")
    code, out, _ = _run(capsys, source, "--to", "pmml")
    assert code == 0
    math = parse_mathml(out)
    assert math.element == "math"
    (mi,) = math.children
    assert mi.element == "mi"
    assert mi.text == "a"
    assert mi.attrs["id"] == "m1.1"
    assert not any("xref" in node.attrs for node in math.iter())


def test_cmml_mode(tmp_path, capsys):
    source = _write(tmp_path, "tok.xml", "<XMTok meaning='plus' role='ADDOP'>+</XMTok>")
    code, out, _ = _run(capsys, source, "--to", "cmml")
    assert code == 0
    math = parse_mathml(out)
    assert math.children[0].element == "plus"


@pytest.mark.parametrize(
    "mode, derived, given", [("pmml", "block", "inline"), ("cmml", None, None)]
)
def test_single_mode_flags(tmp_path, capsys, quantum_xmath, mode, derived, given):
    """--to pmml honours --display and derives it when absent; --to cmml
    writes no display. Neither writes --tex: no alttext, no annotation."""
    source = _write(tmp_path, "input.xml", quantum_xmath)
    plain = _run(capsys, source, "--to", mode)
    flagged = _run(capsys, source, "--to", mode, "--tex", "T", "--display", "inline")
    for (code, out, err), display in ((plain, derived), (flagged, given)):
        assert (code, err) == (0, "")
        math = parse_mathml(out)
        assert math.attrs.get("display") == display
        assert "alttext" not in math.attrs
        assert all(node.element != "annotation" for node in math.iter())
    expected = plain[1]
    if derived is not None:
        expected = expected.replace(f' display="{derived}"', f' display="{given}"', 1)
    assert flagged[1] == expected


@pytest.mark.parametrize(
    "fixture", ["sum_function.xmath.xml", "quantum_defint.xmath.xml"]
)
def test_check_mode_accepts_own_output(tmp_path, capsys, fixture):
    from conftest import fixture_text

    source = _write(tmp_path, "input.xml", fixture_text(fixture))
    result = _write(tmp_path, "out.xml", "")
    code, _, _ = _run(
        capsys, source, "--to", "parallel", "--tex", "t", "--out", result
    )
    assert code == 0
    code, out, _ = _run(capsys, result, "--to", "check")
    assert code == 0
    assert out == ""


def test_check_mode_flags_corruption(tmp_path, capsys, sum_function_mathml):
    corrupted = sum_function_mathml.replace('xref="m1.1.cmml"', 'xref="m1.2.cmml"', 1)
    path = _write(tmp_path, "bad.xml", corrupted)
    code, out, _ = _run(capsys, path, "--to", "check")
    assert code == 1
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    assert "m1.2.cmml" in lines[0]


def test_check_mode_on_published_example(tmp_path, capsys, sum_function_mathml):
    path = _write(tmp_path, "published.xml", sum_function_mathml)
    code, out, _ = _run(capsys, path, "--to", "check")
    assert code == 0, out


def test_parse_error_exit_code_and_location(tmp_path, capsys):
    path = _write(tmp_path, "broken.xml", "<XMApp><XMTok>a</XMTok>")
    code, out, err = _run(capsys, path, "--to", "parallel")
    assert code == 2
    assert out == ""
    assert "broken.xml:" in err
    # file:line:col prefix
    location = err.split(" error:")[0].rstrip(":")
    parts = location.rsplit(":", 2)
    assert parts[1].isdigit() and parts[2].isdigit()


@pytest.mark.parametrize(
    "newline, second_line, col",
    [
        (b"\n", b"  <XMTok>caf\xe9</XMTok>", 13),
        (b"\r", b"  <XMTok>caf\xe9</XMTok>", 13),
        (b"\r\n", "<XMTok>αβγ".encode() + b"\xe9", 11),
    ],
)
def test_non_utf8_input_is_located(tmp_path, capsys, newline, second_line, col):
    """The column counts the characters before the bad byte, as written,
    and lines end as in XML."""
    path = tmp_path / "bad.xml"
    path.write_bytes(b"<XMApp>" + newline + second_line + newline + b"</XMApp>")
    code, out, err = _run(capsys, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"{path}:2:{col}: error: input is not UTF-8: ")


def test_content_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "wrap.xml", "<XMWrap><XMTok>x</XMTok></XMWrap>")
    code, _, err = _run(capsys, path, "--to", "parallel")
    assert code == 2
    assert "XMWrap" in err


def test_deterministic_bytes(tmp_path, capsys, quantum_xmath):
    source = _write(tmp_path, "input.xml", quantum_xmath)
    code1, out1, _ = _run(capsys, source, "--to", "parallel", "--tex", "...")
    code2, out2, _ = _run(capsys, source, "--to", "parallel", "--tex", "...")
    assert code1 == code2 == 0
    assert out1 == out2


def test_numeric_entities_flag(tmp_path, capsys, sum_function_xmath):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    _, plain, _ = _run(capsys, source)
    _, numeric, _ = _run(capsys, source, "--numeric-entities")
    assert "⁡" in plain
    assert "&#x2061;" in numeric and "⁡" not in numeric


def test_pretty_flag(tmp_path, capsys, sum_function_xmath):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    _, out, _ = _run(capsys, source, "--pretty")
    assert out.startswith("<math")
    assert "\n  <semantics" in out


def test_expansions_flag(tmp_path, capsys):
    table = _write(tmp_path, "rules.txt", "pair 2 (apply head (bvar slot2) slot1)\n")
    source = _write(
        tmp_path,
        "input.xml",
        "<XMApp><XMTok meaning='pair' role='FUNCTION'>p</XMTok>"
        "<XMTok>u</XMTok><XMTok>v</XMTok></XMApp>",
    )
    code, out, _ = _run(capsys, source, "--to", "cmml", "--expansions", table)
    assert code == 0
    math = parse_mathml(out)
    apply_node = math.children[0]
    assert [c.element for c in apply_node.children] == ["csymbol", "bvar", "ci"]
    assert apply_node.children[1].children[0].text == "v"


@pytest.mark.parametrize(
    "rule, detail",
    [
        ("pair two (apply head slot1 slot2)", "arity must be an integer"),
        ("pair \u00b2 (apply head slot1 slot2)", "arity must be an integer"),
        ("pair 2 (apply head slot1)", "are not a permutation of 1..2"),
        ("pair 2 (apply head slot1 slot2", "missing ')'"),
    ],
)
def test_expansions_fault_names_table_file(tmp_path, capsys, rule, detail):
    table = _write(tmp_path, "rules.txt", "# rules\n" + rule + "\n")
    source = _write(tmp_path, "input.xml", "<XMTok>a</XMTok>")
    for mode in ("parallel", "cmml"):
        code, out, err = _run(capsys, source, "--to", mode, "--expansions", table)
        assert code == 2
        assert out == ""
        assert err.startswith(f"{table}: error: line 2: ")
        assert detail in err
        assert "input.xml" not in err


@pytest.mark.parametrize(
    "mode, fixture", [("pmml", "sum_function_xmath"), ("check", "sum_function_mathml")]
)
def test_expansions_read_in_every_mode(tmp_path, capsys, request, mode, fixture):
    """A bad --expansions table is an error even where no content is built."""
    source = _write(tmp_path, "input.xml", request.getfixturevalue(fixture))
    assert _run(capsys, source, "--to", mode)[0] == 0
    missing = str(tmp_path / "missing.txt")
    code, out, err = _run(capsys, source, "--to", mode, "--expansions", missing)
    assert (code, out) == (2, "")
    assert err.startswith(f"{missing}: error: ")
    malformed = _write(tmp_path, "rules.txt", "pair two (apply head slot1 slot2)\n")
    code, out, err = _run(capsys, source, "--to", mode, "--expansions", malformed)
    assert (code, out) == (2, "")
    assert err.startswith(f"{malformed}: error: line 1: ")
    assert "input.xml" not in err


@pytest.mark.parametrize(
    "rule, detail",
    [
        ("deep 1 " + "(a " * 2000 + "slot1" + ")" * 2000, "nesting deeper than 200"),
        # Once written out unchecked: <a<b id="m1.1.cmml" ...>, ill-formed.
        ("foo 1 (a<b slot1)", "'a<b' is not an element name"),
        ("foo 1 )", "unexpected ')'"),
        ("foo 1 (", "expected element name after '('"),
        ("foo 1 (a slot0)", "slot indices start at 1"),
        ("foo 1", "expected 'meaning arity template'"),
        # The first fault in reading order is the one reported.
        ("foo 1 (a slot0 b<c)", "slot indices start at 1"),
        ("foo 1 (a slot1) )", "unexpected ')'"),
    ],
    ids=[
        "too-deep",
        "bad-name",
        "close",
        "open",
        "slot0",
        "no-template",
        "slot0-before-bad-name",
        "close-after-template",
    ],
)
def test_expansions_refused_templates(tmp_path, capsys, rule, detail):
    table = _write(tmp_path, "rules.txt", rule + "\n")
    source = _write(
        tmp_path,
        "input.xml",
        '<XMApp><XMTok meaning="foo"/><XMTok>x</XMTok></XMApp>',
    )
    code, out, err = _run(capsys, source, "--expansions", table)
    assert (code, out) == (2, "")
    assert err == f"{table}: error: line 1: {detail}\n"


def test_expansion_bare_element_stands_for_operator(tmp_path, capsys):
    """A template atom with no children is the operator's element, linked
    to the operator token like ``head``."""
    table = _write(tmp_path, "rules.txt", "sq 1 (apply power slot1)\n")
    source = _write(
        tmp_path,
        "input.xml",
        "<XMApp><XMTok meaning='sq' role='FUNCTION'>sq</XMTok><XMTok>x</XMTok></XMApp>",
    )
    converted = tmp_path / "output.xml"
    result = _run(capsys, source, "--expansions", table, "--out", str(converted))
    assert result == (0, "", "")
    math = parse_mathml(converted.read_text("utf-8"))
    assert find(math, "power").attrs == {"id": "m1.2.cmml", "xref": "m1.2"}
    assert find(math, "mi", "sq").attrs["id"] == "m1.2"
    assert _run(capsys, str(converted), "--to", "check") == (0, "", "")


def test_deepest_input_output_passes_check(tmp_path, capsys):
    """199 nested applications plus a token are the deepest XMath accepted;
    the output adds math, semantics and annotation-xml, and check reads it."""
    depth = 199
    xmath = "<XMApp><XMTok>f</XMTok>" * depth + "<XMTok>x</XMTok>" + "</XMApp>" * depth
    source = _write(tmp_path, "input.xml", xmath)
    converted = str(tmp_path / "output.xml")
    assert _run(capsys, source, "--out", converted) == (0, "", "")
    assert _run(capsys, converted, "--to", "check") == (0, "", "")
    too_deep = _write(tmp_path, "deeper.xml", "<XMApp>" + xmath + "</XMApp>")
    code, _, err = _run(capsys, too_deep)
    assert code == 2
    assert "element nesting deeper than 200" in err


def _located_at(err, path, text, tag):
    """The message is ``path:1:col: error: ...`` with col at a ``tag``."""
    assert err.startswith(f"{path}:1:")
    col, rest = err[len(path) + 3 :].split(":", 1)
    assert rest.startswith(" error: ") and not rest[8].isdigit()  # one location
    assert text.startswith(tag, int(col) - 1)


def test_refs_nested_too_deeply_exit_code(tmp_path, capsys):
    text = dual_ref_chain(300)
    source = _write(tmp_path, "chain.xml", text)
    code, out, err = _run(capsys, source)
    assert (code, out) == (2, "")
    assert "refs nested too deeply to follow" in err
    _located_at(err, source, text, "<XMRef")


def test_expansions_nested_too_deeply_exit_code(tmp_path, capsys):
    rule, text = nested_expansions(10, 150)
    table = _write(tmp_path, "rules.txt", rule)
    source = _write(tmp_path, "input.xml", text)
    for mode in ("parallel", "cmml"):
        code, out, err = _run(capsys, source, "--to", mode, "--expansions", table)
        assert (code, out) == (2, "")
        assert "expansions nested too deeply" in err
        _located_at(err, source, text, "<XMApp")


def test_conversion_error_located_like_parse_error(tmp_path, capsys):
    """A located ConversionError prints as ``file:line:col: error: detail``;
    the exception keeps the location in ``str()`` and not in ``detail``."""
    text = (
        "<XMApp><XMTok role='ADDOP' meaning='plus'/><XMTok xml:id='x'>a</XMTok>"
        "<XMTok xml:id='x.cmml'>b</XMTok></XMApp>"
    )
    source = _write(tmp_path, "input.xml", text)
    assert _run(capsys, source) == (
        2, "", f"{source}:1:44: error: output id 'x.cmml' allocated twice\n"
    )
    with pytest.raises(ConversionError) as excinfo:
        build_parallel(parse_xmath(text))
    assert excinfo.value.detail == "output id 'x.cmml' allocated twice"
    assert str(excinfo.value) == "1:44: output id 'x.cmml' allocated twice"
    unlocated = ConversionError("no node")
    assert str(unlocated) == unlocated.detail == "no node"


def test_output_file(tmp_path, capsys, sum_function_xmath):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    out_path = tmp_path / "result.xml"
    code, out, _ = _run(capsys, source, "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text("utf-8").startswith("<math")


def test_stdin_stdout_subprocess(sum_function_xmath):
    proc = subprocess.run(
        [sys.executable, "-m", "xmathml.cli", "-", "--to", "pmml"],
        input=sum_function_xmath.encode(),
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"<math")


_COLD_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import xmathml, xmathml.cli
heavy = ("dataclasses", "inspect", "typing", "html.entities", "pathlib")
print(*[name for name in heavy if name in sys.modules and name not in before])
doc = xmathml.parse_xmath("<XMTok>&alpha;</XMTok>")
print("html.entities" in sys.modules, ascii(doc.root.text))
"""


def test_cold_import_loads_only_what_conversion_runs():
    """A fresh interpreter imports the package and its CLI without the
    modules a conversion never runs; the entity table loads on the first
    text that names an entity."""
    src = Path(xmathml.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _COLD_IMPORT, str(src)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "True '\\u03b1'"]


def test_check_mode_rejects_non_parallel(tmp_path, capsys):
    path = _write(tmp_path, "plain.xml", "<math><mi id='m1.1'>a</mi></math>")
    code, _, err = _run(capsys, path, "--to", "check")
    assert code == 2
    assert "parallel" in err or "semantics" in err


@pytest.mark.parametrize(
    "text, detail",
    [
        ("<mrow/>", "expected a math element"),
        ("<math><semantics><mi>x</mi></semantics></math>", "not a parallel markup instance"),
    ],
)
def test_check_mode_refuses_other_shapes(tmp_path, capsys, text, detail):
    path = _write(tmp_path, "other.xml", text)
    code, out, err = _run(capsys, path, "--to", "check")
    assert (code, out, err) == (2, "", f"{path}: error: {detail}\n")


def test_output_into_missing_directory_is_reported(tmp_path, capsys, sum_function_xmath):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    out_path = str(tmp_path / "missing" / "result.xml")
    code, out, err = _run(capsys, source, "--out", out_path)
    assert (code, out) == (2, "")
    assert err.startswith(f"{out_path}: error: ")


@pytest.mark.parametrize(
    "tex, point",
    [
        ("a\x01b", "U+0001"),
        # How Python decodes the byte 0xFF of a POSIX command line.
        ("a\udcffb", "U+DCFF"),
        ("a\ufffeb", "U+FFFE"),
    ],
    ids=["control", "undecodable-byte", "non-character"],
)
def test_tex_that_xml_cannot_hold_is_refused(
    tmp_path, capsys, sum_function_xmath, tex, point
):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    out_path = tmp_path / "result.xml"
    code, out, err = _run(capsys, source, "--tex", tex, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"{source}: error: tex holds {point}, which XML cannot hold\n"
    assert not out_path.exists()


def test_tex_whitespace_and_astral_characters_kept(
    tmp_path, capsys, sum_function_xmath
):
    source = _write(tmp_path, "input.xml", sum_function_xmath)
    out_path = tmp_path / "result.xml"
    tex = "a\tb\nc\rd & \U0001d49c"
    assert _run(capsys, source, "--tex", tex, "--out", str(out_path)) == (0, "", "")
    math = parse_mathml(out_path.read_text("utf-8"))
    assert math.attrs["alttext"] == tex
    assert _run(capsys, str(out_path), "--to", "check") == (0, "", "")


def test_library_refuses_tex_and_display_that_xml_cannot_hold(sum_function_xmath):
    doc = parse_xmath(sum_function_xmath)
    with pytest.raises(ValueError, match=r"^tex holds U\+0001, which XML cannot hold$"):
        build_parallel(doc, tex="a\x01b")
    with pytest.raises(ValueError, match=r"^display holds U\+DCFF, "):
        build_parallel(doc, display="\udcff")
    with pytest.raises(ValueError, match=r"^display holds U\+001B, "):
        build_presentation(doc, display="\x1b")


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "/nonexistent/file.xml")
    assert code == 2
    assert "/nonexistent/file.xml" in err
