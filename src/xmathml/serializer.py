"""Deterministic XML text output for generated MathML trees."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .mml import MATHML_NAMESPACE, TargetNode


class EntityMode(Enum):
    UTF8 = "utf8"
    NUMERIC_REFS = "numeric"


@dataclass
class SerializeOptions:
    pretty: bool = False
    entity_mode: EntityMode = EntityMode.UTF8
    namespace_prefix: str | None = None


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
    step = "  " if opts.pretty else ""
    newline = "\n" if opts.pretty else ""
    prefix = opts.namespace_prefix
    name_prefix = f"{prefix}:" if prefix else ""
    xmlns_name = f"xmlns:{prefix}" if prefix else "xmlns"
    xmlns = f' {xmlns_name}="{MATHML_NAMESPACE}"'
    parts: list[str] = []
    append = parts.append

    def emit(node: TargetNode, indent: str, extra: str) -> None:
        name = name_prefix + node.element
        attrs = node.attrs
        head = f"{indent}<{name}"
        if "id" in attrs:
            head += f' id="{escape_attr(attrs["id"], mode)}"'
        if "xref" in attrs:
            head += f' xref="{escape_attr(attrs["xref"], mode)}"'
        # Most nodes carry only id and xref; they skip the sort.
        if len(attrs) > ("id" in attrs) + ("xref" in attrs):
            for key in sorted(attrs):
                if key != "id" and key != "xref":
                    head += f' {key}="{escape_attr(attrs[key], mode)}"'
        if node.children:
            append(f"{head}{extra}>{newline}")
            inner = indent + step
            for child in node.children:
                emit(child, inner, "")
            append(f"{indent}</{name}>{newline}")
        elif node.text:
            append(f"{head}{extra}>{escape_text(node.text, mode)}</{name}>{newline}")
        else:
            append(f"{head}{extra}/>{newline}")

    emit(root, "", xmlns)
    text = "".join(parts)
    return text if text.endswith("\n") else text + "\n"
