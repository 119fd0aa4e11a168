"""Output checks against references independent of the converter.

The golden comparison parses with ``xml.etree`` and resolves named
entities from the HTML5 table, so it shares no code with the program's
own reader. Verdicts classify each operation as passed or failed; they
run outside every timed region.
"""

from __future__ import annotations

import html.entities
import re
import xml.etree.ElementTree as ET

from xmathml import (
    ConversionError,
    ParseError,
    build_parallel,
    check_links,
    parse_xmath,
    serialize_mathml,
)

import layers

_ENTITY = re.compile(r"&([A-Za-z][A-Za-z0-9]*);")
_XML_ENTITIES = frozenset({"amp", "lt", "gt", "quot", "apos"})


def _resolve(match: re.Match) -> str:
    name = match.group(1)
    if name in _XML_ENTITIES:
        return match.group(0)
    return html.entities.html5[name + ";"]


def _parse(text: str) -> ET.Element:
    return ET.fromstring(_ENTITY.sub(_resolve, text))


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def golden_mismatch(actual: str, expected: str, renames: dict[str, str]) -> str | None:
    """None when the two MathML texts are equal up to a bijective id renaming.

    Element names (after ``renames`` on the expected side), texts and every
    attribute except id/xref must match node for node; ids must map one to
    one, and every xref must map through that bijection. Otherwise a short
    description of the first difference.
    """
    ids: dict[str, str] = {}
    reverse: dict[str, str] = {}
    xrefs: list[tuple[str, str, str]] = []

    def walk(a: ET.Element, b: ET.Element, path: str) -> str | None:
        name_a, name_b = _local(a.tag), _local(b.tag)
        name_b = renames.get(name_b, name_b)
        if name_a != name_b:
            return f"{path}: element {name_a} != {name_b}"
        if len(a) != len(b):
            return f"{path}: {len(a)} children != {len(b)}"
        if not len(a) and (a.text or "") != (b.text or ""):
            return f"{path}: text {a.text!r} != {b.text!r}"
        plain_a = {k: v for k, v in a.attrib.items() if k not in ("id", "xref")}
        plain_b = {k: v for k, v in b.attrib.items() if k not in ("id", "xref")}
        if plain_a != plain_b:
            return f"{path}: attributes {plain_a} != {plain_b}"
        for key in ("id", "xref"):
            if (key in a.attrib) != (key in b.attrib):
                return f"{path}: {key} present on one side only"
        if "id" in a.attrib:
            mine, theirs = a.attrib["id"], b.attrib["id"]
            if ids.setdefault(mine, theirs) != theirs or reverse.setdefault(theirs, mine) != mine:
                return f"{path}: id {mine} does not map one to one onto {theirs}"
        if "xref" in a.attrib:
            xrefs.append((a.attrib["xref"], b.attrib["xref"], path))
        for i, (x, y) in enumerate(zip(a, b)):
            problem = walk(x, y, f"{path}/{_local(x.tag)}[{i}]")
            if problem:
                return problem
        return None

    problem = walk(_parse(actual), _parse(expected), "")
    if problem:
        return problem
    for mine, theirs, path in xrefs:
        if ids.get(mine) != theirs:
            return f"{path}: xref {mine} maps to {ids.get(mine)}, expected {theirs}"
    return None


def reject_verdict(formula, table, opts) -> tuple[int, int, str]:
    """Run one must-reject input. Returns (attempted, failed, outcome).

    A parse rejection passes when it raises ParseError of the expected
    kind. The deep ref chain passes when it raises a ConversionError, or
    converts and then checks clean in memory and after re-parsing.
    """
    try:
        if formula.expect != "deep-chain":
            parse_xmath(formula.text)
            return 1, 1, "accepted"
        doc = parse_xmath(formula.text)
        math = build_parallel(doc, table=table)
        in_memory = check_links(math)
        text = serialize_mathml(math, opts)
    except ParseError as exc:
        outcome = f"ParseError({exc.kind.value})"
        return 1, int(exc.kind.value != formula.expect), outcome
    except ConversionError as exc:
        return 1, int(formula.expect != "deep-chain"), type(exc).__name__
    except Exception as exc:  # every other exception is a failed operation
        return 1, 1, type(exc).__name__
    if not in_memory.ok:
        return 1, 1, "converted; in-memory check reports violations"
    try:
        report = layers.check(text)
    except Exception as exc:  # the check operation itself failed
        return 2, 1, f"converted; check raised {type(exc).__name__}"
    if not report.ok:
        return 2, 1, "converted; check reports violations"
    return 2, 0, "converted; checks clean"
