"""Deterministic XML text output for generated MathML trees."""

from __future__ import annotations

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


def _encode(value: str, mode: EntityMode) -> str:
    if mode is EntityMode.NUMERIC_REFS:
        return "".join(
            ch if ord(ch) < 128 else f"&#x{ord(ch):X};" for ch in value
        )
    return value


def escape_text(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """Escape character data for XML output, encoding per ``mode``."""
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return _encode(value, mode)


def escape_attr(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """Escape a double-quoted attribute value, encoding per ``mode``."""
    value = escape_text(value, mode).replace('"', "&quot;")
    # Raw whitespace controls would be normalized to spaces on re-parse.
    return value.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")


def _ordered_attrs(node: TargetNode) -> list[tuple[str, str]]:
    # id and xref lead; everything else is alphabetical.
    head = [(k, node.attrs[k]) for k in ("id", "xref") if k in node.attrs]
    rest = sorted(
        (k, v) for k, v in node.attrs.items() if k not in ("id", "xref")
    )
    return head + rest


def serialize_mathml(root: TargetNode, opts: SerializeOptions | None = None) -> str:
    """Serialize a MathML tree to XML text.

    Output is byte-identical for equal trees and options. A namespace
    declaration is emitted on the root element.
    """
    opts = opts or SerializeOptions()
    parts: list[str] = []
    _emit(root, 0, parts, opts, is_root=True)
    text = "".join(parts)
    return text if text.endswith("\n") else text + "\n"


def _emit(
    node: TargetNode,
    depth: int,
    parts: list[str],
    opts: SerializeOptions,
    *,
    is_root: bool = False,
) -> None:
    indent = "  " * depth if opts.pretty else ""
    newline = "\n" if opts.pretty else ""
    prefix = opts.namespace_prefix
    name = f"{prefix}:{node.element}" if prefix else node.element

    attrs = _ordered_attrs(node)
    if is_root:
        xmlns = f"xmlns:{prefix}" if prefix else "xmlns"
        attrs = attrs + [(xmlns, MATHML_NAMESPACE)]
    attr_text = "".join(
        f' {key}="{escape_attr(value, opts.entity_mode)}"' for key, value in attrs
    )

    if node.children:
        parts.append(f"{indent}<{name}{attr_text}>{newline}")
        for child in node.children:
            _emit(child, depth + 1, parts, opts)
        parts.append(f"{indent}</{name}>{newline}")
    elif node.text:
        text = escape_text(node.text, opts.entity_mode)
        parts.append(f"{indent}<{name}{attr_text}>{text}</{name}>{newline}")
    else:
        parts.append(f"{indent}<{name}{attr_text}/>{newline}")
