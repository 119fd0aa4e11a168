"""Branch-visibility marking over an XMath document.

Every node is classified by whether the content walk, the presentation
walk, or both can reach it. The marking is a reachability fixed point in
the style of a mark-and-sweep collector's mark phase: a flag set flows
down from the root ({C, P} at the top), gets intersected with {C} or {P}
at the two children of a dual, and follows idref edges unchanged. Flags
only ever grow per node, so cycles through refs terminate.
"""

from __future__ import annotations

from .model import DUAL, REF, XMathDocument, XMathNode

_C = 1
_P = 2


class VisibilityMap:
    """Per-node (content, presentation) visibility flags."""

    def __init__(self, flags: list[int]):
        self._flags = flags

    def presentation_visible(self, node: XMathNode) -> bool:
        return bool(self._flags[node.index] & _P)

    def both_visible(self, node: XMathNode) -> bool:
        return self._flags[node.index] == _C | _P

    def flags(self, node: XMathNode) -> tuple[bool, bool]:
        value = self._flags[node.index]
        return bool(value & _C), bool(value & _P)


def mark_visibility(doc: XMathDocument) -> VisibilityMap:
    """Compute branch visibility for every node of the document.

    Nodes never reached carry (False, False); the generators skip them.
    """
    flags = [0] * len(doc.nodes)
    work: list[tuple[XMathNode, int]] = [(doc.root, _C | _P)]
    while work:
        node, incoming = work.pop()
        new = incoming & ~flags[node.index]
        if not new:
            continue
        flags[node.index] |= new
        kind = node.kind
        if kind is DUAL:
            work.append((node.children[0], new & _C))
            work.append((node.children[1], new & _P))
        elif kind is REF:
            work.append((doc.resolve_ref(node), new))
        else:
            for child in node.children:
                work.append((child, new))
    return VisibilityMap(flags)
