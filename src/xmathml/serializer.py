"""Deterministic XML text output for generated MathML trees."""

from __future__ import annotations

import re
from enum import Enum

from .mml import MATHML_NAMESPACE, TargetNode


class EntityMode(Enum):
    UTF8 = "utf8"
    NUMERIC_REFS = "numeric"


class SerializeOptions:
    def __init__(
        self,
        pretty: bool = False,
        entity_mode: EntityMode = EntityMode.UTF8,
        namespace_prefix: str | None = None,
    ) -> None:
        self.pretty = pretty
        self.entity_mode = entity_mode
        self.namespace_prefix = namespace_prefix


# A raw carriage return would come back as a newline on re-parse (XML
# line-end normalization), and raw whitespace controls in an attribute
# value would come back as spaces, so those are written as references.
_ESCAPES = {
    "&": "&amp;",
    "<": "&lt;",
    ">": "&gt;",
    "\r": "&#13;",
    '"': "&quot;",
    "\n": "&#10;",
    "\t": "&#9;",
}
_TEXT_SPECIAL = re.compile(r"[&<>\r]")
_ATTR_SPECIAL = re.compile(r'[&<>"\n\t\r]')
_NON_ASCII = re.compile(r"[^\x00-\x7f]")


#: Entries each memo below holds at most; a full memo starts over.
_MEMO_CAP = 1024
# Attribute names, in a node's order -> those after id and xref, sorted.
_ORDERS: dict[tuple[str, ...], tuple[str, ...]] = {}
# Per entity mode: attribute value -> its escaped form.
_ESCAPED_VALUES: dict[EntityMode, dict[str, str]] = {mode: {} for mode in EntityMode}


def _remember(memo: dict, key, value):
    """Store ``value`` under ``key`` in a memo that holds ``_MEMO_CAP``
    entries at most, and return it. The memos are shared by every call and
    thread: a miss that races another only computes the same value again."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


def _escape_ref(match: re.Match) -> str:
    return _ESCAPES[match.group()]


def _char_ref(match: re.Match) -> str:
    return f"&#x{ord(match.group()):X};"


def escape_text(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """Escape character data for XML output, encoding per ``mode``.

    ``& < >`` and carriage return become references; in numeric mode
    every non-ASCII character becomes ``&#xHEX;``. A string that needs
    none of this is returned as it is.
    """
    if _TEXT_SPECIAL.search(value) is not None:
        value = _TEXT_SPECIAL.sub(_escape_ref, value)
    if mode is EntityMode.NUMERIC_REFS and not value.isascii():
        value = _NON_ASCII.sub(_char_ref, value)
    return value


def escape_attr(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """Escape a double-quoted attribute value, encoding per ``mode``.

    Like ``escape_text``, plus ``"``, newline and tab.
    """
    if _ATTR_SPECIAL.search(value) is not None:
        value = _ATTR_SPECIAL.sub(_escape_ref, value)
    if mode is EntityMode.NUMERIC_REFS and not value.isascii():
        value = _NON_ASCII.sub(_char_ref, value)
    return value


def serialize_mathml(root: TargetNode, opts: SerializeOptions | None = None) -> str:
    """Serialize a MathML tree to XML text.

    Output is byte-identical for equal trees and options. Attributes are
    written id, then xref, then the rest alphabetically; the root element
    ends its attributes with the namespace declaration.
    """
    opts = opts or SerializeOptions()
    mode = opts.entity_mode
    numeric = mode is EntityMode.NUMERIC_REFS
    step = "  " if opts.pretty else ""
    newline = "\n" if opts.pretty else ""
    prefix = opts.namespace_prefix
    name_prefix = f"{prefix}:" if prefix else ""
    xmlns_name = f"xmlns:{prefix}" if prefix else "xmlns"
    xmlns = f' {xmlns_name}="{MATHML_NAMESPACE}"'
    parts: list[str] = []
    append = parts.append
    special = _ATTR_SPECIAL.search
    values = _ESCAPED_VALUES[mode]
    # Escape each text once; ids are unique, so a memo of them would not pay.
    texts: dict[str, str] = {}
    # Ids and xrefs go out as they are and are tested together at the end;
    # if any needs an escape, the tree is written again with all escaped.
    written: list[str] = []
    keep = written.append
    escape_ids = False

    def emit(node: TargetNode, indent: str, extra: str) -> None:
        name = name_prefix + node.element
        attrs = node.attrs
        node_id, xref = attrs.get("id"), attrs.get("xref")
        if escape_ids:
            node_id = node_id and escape_attr(node_id, mode)
            xref = xref and escape_attr(xref, mode)
        # Most nodes carry exactly id and xref: one head, no sort.
        if xref is not None and node_id is not None and len(attrs) == 2:
            keep(node_id)
            keep(xref)
            head = f'{indent}<{name} id="{node_id}" xref="{xref}"'
        else:
            head = f"{indent}<{name}"
            if node_id is not None:
                keep(node_id)
                head += f' id="{node_id}"'
            if xref is not None:
                keep(xref)
                head += f' xref="{xref}"'
            names = tuple(attrs)
            order = _ORDERS.get(names)
            if order is None:
                rest = sorted(key for key in names if key != "id" and key != "xref")
                order = _remember(_ORDERS, names, tuple(rest))
            for key in order:
                value = attrs[key]
                escaped = values.get(value)
                if escaped is None:
                    escaped = _remember(values, value, escape_attr(value, mode))
                head += f' {key}="{escaped}"'
        if node.children:
            append(f"{head}{extra}>{newline}")
            inner = indent + step
            for child in node.children:
                emit(child, inner, "")
            append(f"{indent}</{name}>{newline}")
        elif node.text:
            text = node.text
            escaped = texts.get(text)
            if escaped is None:
                escaped = texts[text] = escape_text(text, mode)
            append(f"{head}{extra}>{escaped}</{name}>{newline}")
        else:
            append(f"{head}{extra}/>{newline}")

    emit(root, "", xmlns)
    if special(ids := "".join(written)) or numeric and not ids.isascii():
        parts.clear()
        escape_ids = True
        emit(root, "", xmlns)
    del emit, keep, written, ids  # emit refers to itself; freed here, before the join
    if not opts.pretty:
        append("\n")
    return "".join(parts)
