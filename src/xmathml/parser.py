"""Parsing of XMath XML, and re-reading of MathML for the link checker.

Both readers are built directly on expat, so that every diagnostic carries
a line/column, and both build their nodes in the expat callbacks, in one
pass over the text. Named entities are declared to expat in a foreign
DTD, so expat reads the text as written and counts every position in it.
Element names are accepted with or without a namespace prefix;
the local name decides the node kind.
"""

from __future__ import annotations

import re
import xml.parsers.expat

from .errors import ParseError, ParseErrorKind
from .mml import TargetNode
from .model import DUAL, ELEMENT_KINDS, REF, TOK, SemanticAttrs, XMathDocument, XMathNode

#: Wrapper elements tolerated around the actual XMath root.
WRAPPER_ELEMENTS = frozenset({"Math", "XMath"})

# Broad on purpose: once expat has read a DTD it skips a reference to an
# undeclared name, so every name the text could refer to is declared.
_ENTITY_NAME = re.compile(r"&([^\s&;<>\"'#%]+);")
_BUILT_IN = frozenset({"lt", "gt", "amp", "quot", "apos"})
_errors = xml.parsers.expat.errors
_UNLESS_STANDALONE = xml.parsers.expat.XML_PARAM_ENTITY_PARSING_UNLESS_STANDALONE

#: Formulas are desk-scale; deeper nesting is rejected rather than risking
#: recursion failures in the tree passes.
MAX_NESTING_DEPTH = 200
MATHML_NESTING_DEPTH = MAX_NESTING_DEPTH + 3  # math, semantics, annotation-xml
_TOO_DEEP = "element nesting deeper than {}"
_kind_of = ELEMENT_KINDS.get  # bound once, not looked up per element


def _located(parser, detail: str) -> ParseError:
    """A MALFORMED_XML error at the parser's current 1-based position."""
    line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
    return ParseError(ParseErrorKind.MALFORMED_XML, line, col, detail)


def _buffered(text: str):
    """A fresh expat parser that takes text in as few pieces as expat
    allows, in a buffer no longer than ``text`` or pyexpat's default. A
    longer run still arrives in pieces, which the handlers join."""
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_size = min(len(text), 8192) or 1  # pyexpat refuses 0
    parser.buffer_text = True
    return parser


def _read(parser, text: str, start, end, chars) -> None:
    """Run a fresh expat ``parser`` over ``text`` with the reader's checks.

    The handlers are installed directly, one Python frame per event; each
    reads the parser's position only when it needs one, and ``start``
    refuses nesting beyond the reader's depth limit (``_TOO_DEEP``).
    Document type declarations are refused. Each entity name the text
    refers to is declared in a foreign DTD, which expat reads unless the
    text says ``standalone="yes"``; expat then counts every position in
    the text as written. Every refusal is a located MALFORMED_XML.
    """
    names = set(_ENTITY_NAME.findall(text)) - _BUILT_IN if "&" in text else ()

    def doctype(*_args) -> None:
        # Inline DTDs allow unbounded entity amplification; formula files
        # never carry them.
        raise _located(parser, "document type declarations are not supported")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chars
    parser.StartDoctypeDeclHandler = doctype
    if names:  # with none, expat reads no DTD and the text pays nothing

        def declare(*_args) -> int:
            # A known name stands for its character reference, any other
            # for itself, so that expat refuses its use where it refuses an
            # undeclared entity. A string that is no XML name fails its own
            # declaration, and expat refuses its reference in the text.
            # Known: the HTML5 named characters of one character other than
            # markup, a tab or a newline. The table loads here, not at import.
            from html.entities import html5

            for name in names:
                char = html5.get(name + ";", "")
                known = len(char) == 1 and char not in "<>&\"'\t\n"
                value = f"&#{ord(char)};" if known else f"&{name};"
                try:
                    parser.ExternalEntityParserCreate(None).Parse(
                        f'<!ENTITY {name} "{value}">', True
                    )
                except xml.parsers.expat.ExpatError:
                    pass
            return 1

        parser.SetParamEntityParsing(_UNLESS_STANDALONE)
        parser.UseForeignDTD(True)
        parser.ExternalEntityRefHandler = declare
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as exc:
        detail = _errors.messages[exc.code]
        if detail == _errors.XML_ERROR_RECURSIVE_ENTITY_REF:  # declared as itself
            detail = _errors.XML_ERROR_UNDEFINED_ENTITY
        raise ParseError(
            ParseErrorKind.MALFORMED_XML, exc.lineno, exc.offset + 1, detail
        ) from None
    finally:
        # The handlers close over the parser; unset, the parser and all
        # they hold are freed on return instead of by the cyclic collector.
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.StartDoctypeDeclHandler = None
        parser.ExternalEntityRefHandler = None


def read_xml_tree(text: str) -> TargetNode:
    """Parse MathML into a TargetNode tree in the expat callbacks: local
    names, no xmlns attributes, ``xml:`` stripped, text on leaves only.
    Raises ParseError(MALFORMED_XML) on any well-formedness problem."""
    parser = _buffered(text)  # no text is located
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

    Nodes are built, numbered in document order and indexed in the expat
    callbacks, each column recorded in the text as written. Structural
    faults are held until the reader has accepted the whole text (a
    reader fault anywhere wins), and the least is raised: by the start of
    the element it belongs to, then by rank (0 unknown element, 1 an
    XMTok's first child, 2 text, 3 an XMRef's children or a wrapper's
    child count, 4 an XMRef without idref, 5 an XMDual's arity, which
    belongs to the last element inside the dual), then by arrival.

    Text is read buffered, in as few pieces as expat allows, so a text
    fault cannot be located where it is found. When the least fault is
    one, the text is read once more, unbuffered, to locate it.
    """
    return _parse_xmath(text, False)


def _parse_xmath(text: str, locate_text: bool) -> XMathDocument:
    """``parse_xmath``; with ``locate_text``, text is read unbuffered and
    each text fault is located."""
    parser = xml.parsers.expat.ParserCreate() if locate_text else _buffered(text)
    # In start order, which is document order: every XMath node, and the
    # nodes that carry an xml:id and an idref.
    nodes: list[XMathNode] = []
    ids: list[XMathNode] = []
    refs: list[XMathNode] = []
    stack: list[XMathNode] = []
    # Math/XMath wrappers and unknown elements open as placeholder nodes
    # of kind None, outside nodes; the wrappers are the bottom
    # len(wrapper_names) ones.
    wrapper_names: list[str] = []
    faults: list[tuple] = []

    def hold(
        owner: XMathNode,
        rank: int,
        line: int,
        col: int,
        detail: str,
        kind: ParseErrorKind = ParseErrorKind.MALFORMED_XML,
    ) -> None:
        faults.append((owner.line, owner.col, rank, len(faults), kind, line, col, detail))

    def start(name: str, attrs: dict[str, str]) -> None:
        depth = len(stack)
        if depth >= MAX_NESTING_DEPTH:
            raise _located(parser, _TOO_DEEP.format(MAX_NESTING_DEPTH))
        line, col = parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        kind = _kind_of(name) or _kind_of(name.rpartition(":")[2])
        if kind is not None:
            sem = SemanticAttrs()
            node = XMathNode(
                kind, [], "" if kind is TOK else None, sem, len(nodes), line, col
            )
            nodes.append(node)
            for key, value in attrs.items():
                if key == "role":
                    sem.role = value
                elif key == "meaning":
                    sem.meaning = value
                elif key == "xml:id":
                    sem.xml_id = value
                    ids.append(node)
                elif key == "idref":
                    sem.idref = value
                    refs.append(node)
                elif key == "font":
                    sem.font = value
                elif key == "mathstyle":
                    sem.mathstyle = value
                elif key == "scriptpos":
                    sem.scriptpos = value
                elif key == "stretchy" and value in ("true", "false"):
                    sem.stretchy = value == "true"
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
            if locate_text:
                # Unbuffered, a run holds no line break: skip its leading
                # spaces.
                line = parser.CurrentLineNumber
                col = parser.CurrentColumnNumber + 1 + len(data) - len(data.lstrip(" \t\r\n"))
            else:
                line = col = 0  # no column is 0: located by a second read
            hold(node, 2, line, col, f"text content not allowed inside {local}")

    _read(parser, text, start, end, chars)
    if faults:
        fault = min(faults)
        if not fault[6]:
            _parse_xmath(text, True)  # the same faults, the text located
        raise ParseError(*fault[4:])
    # Fault-free, each wrapper holds one element: the first node is the root.
    return XMathDocument._indexed(nodes, ids, refs)
