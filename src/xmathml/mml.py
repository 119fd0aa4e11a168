"""MathML tree shared by the generators, linker, serializer and MathML reader."""

from __future__ import annotations

from collections.abc import Iterator

from .model import XMathNode

MATHML_NAMESPACE = "http://www.w3.org/1998/Math/MathML"

class TargetNode:
    """One generated MathML node, annotated with its ascribed source.

    ``origin`` records the XMath node that directly generated the target
    (the "current" node of the ascription step); it is diagnostic only
    and never serialized. A node's branch is the tree it is in.
    """

    __slots__ = ("element", "attrs", "children", "text", "source", "origin")

    def __init__(
        self,
        element: str,
        attrs: dict[str, str] | None = None,
        children: list[TargetNode] | None = None,
        text: str | None = None,
        source: XMathNode | None = None,
        origin: XMathNode | None = None,
    ) -> None:
        self.element = element
        self.attrs = {} if attrs is None else attrs
        self.children = [] if children is None else children
        self.text = text
        self.source = source
        self.origin = origin

    def iter(self) -> Iterator["TargetNode"]:
        """All nodes of this subtree in document order (pre-order)."""
        yield self
        for child in self.children:
            yield from child.iter()

    def __repr__(self) -> str:
        bits = [self.element]
        if "id" in self.attrs:
            bits.append(f"id={self.attrs['id']}")
        if self.text:
            bits.append(repr(self.text))
        return "<{}>".format(" ".join(bits))


def target_from_raw(tree: TargetNode) -> TargetNode:
    """Return ``tree``: kept only while ``perfbench/layers.py`` still calls it."""
    return tree
