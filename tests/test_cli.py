from __future__ import annotations

import subprocess
import sys

import pytest

from xmathml import ConversionError, build_parallel, parse_xmath
from xmathml.cli import main
from helpers import (
    assert_isomorphic,
    dual_ref_chain,
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
    ],
    ids=["too-deep", "bad-name"],
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


def test_check_mode_rejects_non_parallel(tmp_path, capsys):
    path = _write(tmp_path, "plain.xml", "<math><mi id='m1.1'>a</mi></math>")
    code, _, err = _run(capsys, path, "--to", "check")
    assert code == 2
    assert "parallel" in err or "semantics" in err


def test_missing_file_is_reported(capsys):
    code, _, err = _run(capsys, "/nonexistent/file.xml")
    assert code == 2
    assert "/nonexistent/file.xml" in err
