"""Parsing and serialization of XMath XML.

The reader is built directly on expat so that every diagnostic carries a
line/column, and it is shared with the MathML re-reader used by the link
checker. Element names are accepted with or without a namespace prefix;
the local name decides the node kind.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from dataclasses import dataclass, field

from .errors import ParseError, ParseErrorKind
from .model import ELEMENT_KINDS, NodeKind, SemanticAttrs, XMathDocument, XMathNode
from .serializer import escape_attr, escape_text

#: Wrapper elements tolerated around the actual XMath root.
WRAPPER_ELEMENTS = frozenset({"Math", "XMath"})


def _greek(name_points: list[tuple[str, int]]) -> dict[str, str]:
    return {name: chr(cp) for name, cp in name_points}


#: Named character entities resolved by the reader. XML predefines only
#: amp/lt/gt/quot/apos; MathML sources routinely use these as well.
NAMED_ENTITIES: dict[str, str] = {
    "ApplyFunction": "⁡",
    "af": "⁡",
    "InvisibleTimes": "⁢",
    "it": "⁢",
    "InvisibleComma": "⁣",
    "ic": "⁣",
    "int": "∫",
    "sum": "∑",
    "prod": "∏",
    "times": "×",
    "minus": "−",
    "plusmn": "±",
    "dd": "ⅆ",
    "ee": "ⅇ",
    "ii": "ⅈ",
    "HilbertSpace": "ℋ",
    "LeftAngleBracket": "⟨",
    "RightAngleBracket": "⟩",
    "langle": "⟨",
    "rangle": "⟩",
    "VerticalBar": "∣",
    "nbsp": " ",
}
NAMED_ENTITIES.update(
    _greek(
        [
            ("Alpha", 0x391), ("Beta", 0x392), ("Gamma", 0x393), ("Delta", 0x394),
            ("Epsilon", 0x395), ("Zeta", 0x396), ("Eta", 0x397), ("Theta", 0x398),
            ("Iota", 0x399), ("Kappa", 0x39A), ("Lambda", 0x39B), ("Mu", 0x39C),
            ("Nu", 0x39D), ("Xi", 0x39E), ("Omicron", 0x39F), ("Pi", 0x3A0),
            ("Rho", 0x3A1), ("Sigma", 0x3A3), ("Tau", 0x3A4), ("Upsilon", 0x3A5),
            ("Phi", 0x3A6), ("Chi", 0x3A7), ("Psi", 0x3A8), ("Omega", 0x3A9),
            ("alpha", 0x3B1), ("beta", 0x3B2), ("gamma", 0x3B3), ("delta", 0x3B4),
            ("epsilon", 0x3B5), ("zeta", 0x3B6), ("eta", 0x3B7), ("theta", 0x3B8),
            ("iota", 0x3B9), ("kappa", 0x3BA), ("lambda", 0x3BB), ("mu", 0x3BC),
            ("nu", 0x3BD), ("xi", 0x3BE), ("omicron", 0x3BF), ("pi", 0x3C0),
            ("rho", 0x3C1), ("sigmaf", 0x3C2), ("sigma", 0x3C3), ("tau", 0x3C4),
            ("upsilon", 0x3C5), ("phi", 0x3C6), ("chi", 0x3C7), ("psi", 0x3C8),
            ("omega", 0x3C9),
        ]
    )
)

_ENTITY_RE = re.compile(r"&([A-Za-z][A-Za-z0-9]*);")

#: Formulas are desk-scale; deeper nesting is rejected rather than risking
#: recursion failures in the tree passes.
MAX_NESTING_DEPTH = 200


@dataclass(eq=False)
class RawElement:
    """Generic parsed XML element with source positions."""

    name: str
    attrs: dict[str, str]
    children: list["RawElement"] = field(default_factory=list)
    chunks: list[tuple[str, int, int]] = field(default_factory=list)
    line: int = 0
    col: int = 0

    @property
    def local(self) -> str:
        return self.name.rsplit(":", 1)[-1]

    @property
    def text(self) -> str:
        return "".join(chunk for chunk, _, _ in self.chunks)

    def nonspace_chunk(self) -> tuple[str, int, int] | None:
        for chunk, line, col in self.chunks:
            if chunk.strip():
                return chunk, line, col
        return None


def read_xml_tree(text: str) -> RawElement:
    """Parse XML text into a RawElement tree.

    Known named character entities are substituted up front (expat knows
    only the five XML built-ins). Raises ParseError(MALFORMED_XML) on any
    well-formedness problem.
    """
    text = _ENTITY_RE.sub(
        lambda m: NAMED_ENTITIES.get(m.group(1), m.group(0)), text
    )
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    root: list[RawElement] = []
    stack: list[RawElement] = []

    def start(name: str, attrs: dict[str, str]) -> None:
        if len(stack) >= MAX_NESTING_DEPTH:
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                parser.CurrentLineNumber,
                parser.CurrentColumnNumber + 1,
                f"element nesting deeper than {MAX_NESTING_DEPTH}",
            )
        elem = RawElement(
            name,
            dict(attrs),
            line=parser.CurrentLineNumber,
            col=parser.CurrentColumnNumber + 1,
        )
        if stack:
            stack[-1].children.append(elem)
        else:
            root.append(elem)
        stack.append(elem)

    def end(name: str) -> None:
        stack.pop()

    def chars(data: str) -> None:
        if stack:
            stack[-1].chunks.append(
                (data, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
            )

    def doctype(*_args) -> None:
        # Inline DTDs allow unbounded entity amplification; formula files
        # never carry them.
        raise ParseError(
            ParseErrorKind.MALFORMED_XML,
            parser.CurrentLineNumber,
            parser.CurrentColumnNumber + 1,
            "document type declarations are not supported",
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        detail = xml.parsers.expat.errors.messages[exc.code]
        raise ParseError(
            ParseErrorKind.MALFORMED_XML, exc.lineno, exc.offset + 1, detail
        ) from None
    if not root:
        raise ParseError(ParseErrorKind.MALFORMED_XML, 1, 1, "no element found")
    return root[0]


_KNOWN_ATTRS = frozenset(
    {"role", "meaning", "xml:id", "idref", "font", "mathstyle", "stretchy", "scriptpos"}
)


def _convert_attrs(raw: RawElement) -> SemanticAttrs:
    attrs = SemanticAttrs()
    for name, value in raw.attrs.items():
        if name == "xmlns" or name.startswith("xmlns:"):
            continue
        if name == "role":
            attrs.role = value
        elif name == "meaning":
            attrs.meaning = value
        elif name == "xml:id":
            attrs.xml_id = value
        elif name == "idref":
            attrs.idref = value
        elif name == "font":
            attrs.font = value
        elif name == "mathstyle":
            attrs.mathstyle = value
        elif name == "scriptpos":
            attrs.scriptpos = value
        elif name == "stretchy" and value in ("true", "false"):
            attrs.stretchy = value == "true"
        else:
            # Unknown attributes (and malformed stretchy values) pass through.
            attrs.extra[name] = value
    return attrs


def _unwrap(raw: RawElement) -> RawElement:
    while raw.local in WRAPPER_ELEMENTS:
        bad = raw.nonspace_chunk()
        if bad is not None:
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                bad[1],
                bad[2],
                f"text content not allowed inside {raw.local}",
            )
        if len(raw.children) != 1:
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                raw.line,
                raw.col,
                f"{raw.local} wrapper must contain exactly one element",
            )
        raw = raw.children[0]
    return raw


def _build(raw: RawElement) -> XMathNode:
    kind = ELEMENT_KINDS.get(raw.local)
    if kind is None:
        raise ParseError(
            ParseErrorKind.UNKNOWN_ELEMENT,
            raw.line,
            raw.col,
            f"unknown element {raw.name!r}",
        )
    attrs = _convert_attrs(raw)
    node = XMathNode(kind, attrs=attrs, line=raw.line, col=raw.col)

    if kind is NodeKind.TOK:
        if raw.children:
            child = raw.children[0]
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                child.line,
                child.col,
                "XMTok cannot contain child elements",
            )
        node.text = raw.text
        return node

    bad = raw.nonspace_chunk()
    if bad is not None:
        raise ParseError(
            ParseErrorKind.MALFORMED_XML,
            bad[1],
            bad[2],
            f"text content not allowed inside {raw.local}",
        )

    if kind is NodeKind.REF:
        if raw.children:
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                raw.line,
                raw.col,
                "XMRef cannot contain child elements",
            )
        if attrs.idref is None:
            raise ParseError(
                ParseErrorKind.MALFORMED_XML,
                raw.line,
                raw.col,
                "XMRef requires an idref attribute",
            )
        return node

    node.children = [_build(child) for child in raw.children]

    if kind is NodeKind.DUAL and len(node.children) != 2:
        raise ParseError(
            ParseErrorKind.DUAL_ARITY,
            raw.line,
            raw.col,
            f"XMDual must have exactly 2 children, found {len(node.children)}",
        )
    return node


def parse_xmath(text: str) -> XMathDocument:
    """Parse XMath XML into a validated document.

    Whitespace between child elements is discarded; token text is kept
    exactly, including empty text. Raises ParseError on any rejection;
    duplicate ids and dangling idrefs are found by XMathDocument.
    """
    return XMathDocument(_build(_unwrap(read_xml_tree(text))))


def _xmath_attr_map(node: XMathNode) -> dict[str, str]:
    s = node.attrs
    out: dict[str, str] = {}
    for name, value in (
        ("role", s.role),
        ("meaning", s.meaning),
        ("xml:id", s.xml_id),
        ("idref", s.idref),
        ("font", s.font),
        ("mathstyle", s.mathstyle),
        ("scriptpos", s.scriptpos),
    ):
        if value is not None:
            out[name] = value
    if s.stretchy is not None:
        out["stretchy"] = "true" if s.stretchy else "false"
    out.update(s.extra)
    return dict(sorted(out.items()))


def serialize_xmath(doc: XMathDocument, *, pretty: bool = True) -> str:
    """Serialize a document back to XMath XML.

    Attribute order is normalized alphabetically, so output is
    deterministic and parse(serialize(d)) is structurally equal to d.
    """
    parts: list[str] = []
    _emit(doc.root, 0, parts, pretty)
    return "".join(parts) + "\n"


def _emit(node: XMathNode, depth: int, parts: list[str], pretty: bool) -> None:
    indent = "  " * depth if pretty else ""
    newline = "\n" if pretty else ""
    name = node.kind.value
    attr_text = "".join(
        f' {key}="{escape_attr(value)}"' for key, value in _xmath_attr_map(node).items()
    )
    if node.kind is NodeKind.TOK:
        if node.text:
            parts.append(f"{indent}<{name}{attr_text}>{escape_text(node.text)}</{name}>")
        else:
            parts.append(f"{indent}<{name}{attr_text}/>")
        parts.append(newline)
    elif not node.children:
        parts.append(f"{indent}<{name}{attr_text}/>{newline}")
    else:
        parts.append(f"{indent}<{name}{attr_text}>{newline}")
        for child in node.children:
            _emit(child, depth + 1, parts, pretty)
        parts.append(f"{indent}</{name}>{newline}")
