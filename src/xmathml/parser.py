"""Parsing of XMath XML, and re-reading of MathML for the link checker.

Both readers are built directly on expat, so that every diagnostic carries
a line/column, and both build their nodes in the expat callbacks, in one
pass over the text. Element names are accepted with or without a
namespace prefix; the local name decides the node kind.
"""

from __future__ import annotations

import re
import xml.parsers.expat
from bisect import bisect_left
from html.entities import html5

from .errors import ParseError, ParseErrorKind
from .mml import TargetNode
from .model import ELEMENT_KINDS, NodeKind, SemanticAttrs, XMathDocument, XMathNode

#: Wrapper elements tolerated around the actual XMath root.
WRAPPER_ELEMENTS = frozenset({"Math", "XMath"})

#: The HTML5/MathML named characters, less those unsafe to substitute before
#: expat reads the text: markup, tab, newline and two-character values.
NAMED_ENTITIES: dict[str, str] = {
    name[:-1]: value
    for name, value in html5.items()
    if name[-1] == ";" and len(value) == 1 and value not in "<>&\"'\t\n"
}

# A CDATA section, or a comment (which may hold "<![CDATA["), matches as a
# whole with no name, so the entities inside stay as written.
_ENTITY_RE = re.compile(
    r"<!--.*?-->|<!\[CDATA\[.*?]]>|&([A-Za-z][A-Za-z0-9]*);", re.S
)
_LINE_BREAK = re.compile(r"\r\n?|\n")  # what expat counts as a new line

#: Formulas are desk-scale; deeper nesting is rejected rather than risking
#: recursion failures in the tree passes.
MAX_NESTING_DEPTH = 200
MATHML_NESTING_DEPTH = MAX_NESTING_DEPTH + 3  # math, semantics, annotation-xml
_TOO_DEEP = "element nesting deeper than {}"


def _located(parser, detail: str) -> ParseError:
    """A MALFORMED_XML error at the parser's current 1-based position."""
    line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
    return ParseError(ParseErrorKind.MALFORMED_XML, line, col, detail)


def _substitute(text: str) -> tuple[str, dict]:
    """Replace the known named entities outside CDATA sections and
    comments. Per line with a replacement, also give the 1-based columns
    of the replacements in the new text and the columns removed up to and
    including each."""
    pieces, shifts = [], {}
    line, line_start, last, removed = 1, 0, 0, 0
    for match in _ENTITY_RE.finditer(text):
        value = NAMED_ENTITIES.get(match.group(1))
        if value is not None:
            start = match.start()
            for brk in _LINE_BREAK.finditer(text, last, start):
                line, line_start, removed = line + 1, brk.end(), 0
            cols, totals = shifts.setdefault(line, ([], []))
            cols.append(start - line_start - removed + 1)
            removed += len(match.group()) - 1
            totals.append(removed)
            pieces += (text[last:start], value)
            last = match.end()
    pieces.append(text[last:])
    return "".join(pieces), shifts


def _source_col(shifts: dict, line: int, col: int) -> int:
    """The column in the text as given of a column in the substituted text."""
    cols, totals = shifts.get(line, ((), ()))
    before = bisect_left(cols, col)  # replacements left of col
    return col + totals[before - 1] if before else col


def _read(parser, text: str, start, end, chars) -> dict:
    """Run a fresh expat ``parser`` over ``text`` with the reader's checks.

    The handlers are installed directly, one Python frame per event; each
    reads the parser's position only when it needs one, and ``start``
    refuses nesting beyond the reader's depth limit (``_TOO_DEEP``). Known
    named character entities are substituted up front (expat knows only
    the five XML built-ins), and document type declarations are refused.
    Every refusal is a located MALFORMED_XML.

    Columns are given in the text as written: errors here are moved back
    past substituted entities, and the returned shifts (empty for a text
    without ``&``) let the caller do the same with ``_source_col``.
    """

    def doctype(*_args) -> None:
        # Inline DTDs allow unbounded entity amplification; formula files
        # never carry them.
        raise _located(parser, "document type declarations are not supported")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.StartDoctypeDeclHandler = doctype
    shifts: dict = {}
    if "&" in text:
        text, shifts = _substitute(text)
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        line, col = exc.lineno, exc.offset + 1
        detail = xml.parsers.expat.errors.messages[exc.code]
    except ParseError as exc:  # raised by a handler
        line, col, detail = exc.line, exc.col, exc.detail
    else:
        return shifts
    finally:
        # The handlers close over the parser; unset, the parser and all
        # they hold are freed on return instead of by the cyclic collector.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.StartDoctypeDeclHandler = None
    col = _source_col(shifts, line, col)
    raise ParseError(ParseErrorKind.MALFORMED_XML, line, col, detail) from None


def read_xml_tree(text: str) -> TargetNode:
    """Parse MathML into a TargetNode tree in the expat callbacks: local
    names, no xmlns attributes, ``xml:`` stripped, text on leaves only.
    Raises ParseError(MALFORMED_XML) on any well-formedness problem."""
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True  # no text is located: take it in one piece
    # A document node at the bottom of the stack gives every element a
    # parent to join.
    document = TargetNode("")
    stack = [document]

    def start(name: str, attrs: dict[str, str]) -> None:
        if len(stack) > MATHML_NESTING_DEPTH:
            raise _located(parser, _TOO_DEEP.format(MATHML_NESTING_DEPTH))
        if "xml" in "".join(attrs):  # xmlns, xmlns:*, xml:* or a false alarm
            attrs = {
                key.rpartition(":")[2] if key.startswith("xml:") else key: value
                for key, value in attrs.items()
                if key != "xmlns" and not key.startswith("xmlns:")
            }
        node = TargetNode(name.rpartition(":")[2], attrs, [], "")
        stack[-1].children.append(node)
        stack.append(node)

    def end(_name: str) -> None:
        node = stack.pop()
        if node.children:
            node.text = None

    def chars(data: str) -> None:
        stack[-1].text += data

    _read(parser, text, start, end, chars)
    return document.children[0]  # expat refuses a text without an element


def parse_xmath(text: str) -> XMathDocument:
    """Parse XMath XML into a validated document.

    Whitespace between child elements is discarded; token text is kept
    exactly, including empty text. Raises ParseError on any rejection;
    duplicate ids and dangling idrefs are found by XMathDocument.

    Nodes are built in the expat callbacks. Structural faults are held
    until the reader has accepted the whole text (a reader fault anywhere
    wins), and the least is raised: by the start of the element it
    belongs to, then by rank (0 unknown element, 1 an XMTok's first
    child, 2 text, 3 an XMRef's children or a wrapper's child count,
    4 an XMRef without idref, 5 an XMDual's arity, which belongs to the
    last element inside the dual), then by arrival.
    """
    # Local names: looking up an enum member costs more than most of a
    # callback.
    TOK, REF, DUAL = NodeKind.TOK, NodeKind.REF, NodeKind.DUAL
    parser = xml.parsers.expat.ParserCreate()
    top: list[XMathNode] = []
    stack: list[XMathNode] = []
    # Math/XMath wrappers and unknown elements open as placeholder nodes
    # of kind None; the wrappers are the bottom len(wrapper_names) ones.
    wrapper_names: list[str] = []
    faults: list[tuple[int, int, int, int, ParseError]] = []

    def hold(
        owner: XMathNode,
        rank: int,
        line: int,
        col: int,
        detail: str,
        kind: ParseErrorKind = ParseErrorKind.MALFORMED_XML,
    ) -> None:
        error = ParseError(kind, line, col, detail)
        faults.append((owner.line, owner.col, rank, len(faults), error))

    def start(name: str, attrs: dict[str, str]) -> None:
        depth = len(stack)
        if depth >= MAX_NESTING_DEPTH:
            raise _located(parser, _TOO_DEEP.format(MAX_NESTING_DEPTH))
        line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        kind = ELEMENT_KINDS.get(name) or ELEMENT_KINDS.get(name.rpartition(":")[2])
        if kind is not None:
            sem = SemanticAttrs()
            for key, value in attrs.items():
                if key == "role":
                    sem.role = value
                elif key == "meaning":
                    sem.meaning = value
                elif key == "xml:id":
                    sem.xml_id = value
                elif key == "idref":
                    sem.idref = value
                elif key == "font":
                    sem.font = value
                elif key == "mathstyle":
                    sem.mathstyle = value
                elif key == "scriptpos":
                    sem.scriptpos = value
                elif key == "stretchy" and value in ("true", "false"):
                    sem.stretchy = value == "true"
            node = XMathNode(
                kind, [], "" if kind is TOK else None, sem, -1, line, col
            )
            if kind is REF and sem.idref is None:
                hold(node, 4, line, col, "XMRef requires an idref attribute")
        else:
            node = XMathNode(None, line=line, col=col)
            local = name.rpartition(":")[2]
            if depth == len(wrapper_names) and local in WRAPPER_ELEMENTS:
                wrapper_names.append(local)
            else:
                hold(
                    node,
                    0,
                    line,
                    col,
                    f"unknown element {name!r}",
                    ParseErrorKind.UNKNOWN_ELEMENT,
                )
        if depth:
            parent = stack[-1]
            parent.children.append(node)
            if parent.kind is TOK:
                hold(parent, 1, line, col, "XMTok cannot contain child elements")
            elif parent.kind is REF:
                hold(
                    parent,
                    3,
                    parent.line,
                    parent.col,
                    "XMRef cannot contain child elements",
                )
        else:
            top.append(node)
        stack.append(node)

    def end(name: str) -> None:
        node = stack.pop()
        count = len(node.children)
        if node.kind is DUAL and count != 2:
            last = node
            while last.children:
                last = last.children[-1]
            hold(
                last,
                5,
                node.line,
                node.col,
                f"XMDual must have exactly 2 children, found {count}",
                ParseErrorKind.DUAL_ARITY,
            )
        elif len(stack) < len(wrapper_names):
            local = wrapper_names.pop()
            if count != 1:
                hold(
                    node,
                    3,
                    node.line,
                    node.col,
                    f"{local} wrapper must contain exactly one element",
                )

    def chars(data: str) -> None:
        node = stack[-1]  # expat reports no text outside the root
        if node.kind is TOK:
            node.text += data
        elif data.strip() or not data.isascii():  # a non-ASCII space is text
            depth = len(stack)
            if depth <= len(wrapper_names):
                local = wrapper_names[depth - 1]
            elif node.kind is None:
                return  # an unknown element's own fault ranks first
            else:
                local = node.kind.value
            # Unbuffered, a run holds no line break: skip its leading spaces.
            line = parser.CurrentLineNumber
            col = parser.CurrentColumnNumber + 1 + len(data) - len(data.lstrip(" \t\r\n"))
            hold(node, 2, line, col, f"text content not allowed inside {local}")

    shifts = _read(parser, text, start, end, chars)
    if faults:
        error = min(faults)[4]
        col = _source_col(shifts, error.line, error.col)
        raise ParseError(error.kind, error.line, col, error.detail)
    nodes = list(top) if shifts else []
    while nodes:  # columns in the text as written
        node = nodes.pop()
        node.col = _source_col(shifts, node.line, node.col)
        nodes.extend(node.children)
    root = top[0]
    while root.kind is None:  # a fault-free wrapper has exactly one child
        root = root.children[0]
    return XMathDocument(root)
