"""Choice of the source XMath node recorded on every generated MathML node.

Cross-references are later derived purely from these sources: two output
nodes are linked when they were ascribed the same source. The decision
procedure distinguishes container targets (rows, applies, script boxes)
from token targets, and for tokens invisible to the opposite branch it
decides between the operator they manifest and the enclosing dual.
"""

from __future__ import annotations

from .errors import ReferenceCycleError
from .mml import TargetNode
from .model import Branch, NodeKind, XMathDocument, XMathNode
from .visibility import VisibilityMap

# Bound once: per node, a lookup through the enum class costs ~10x a global.
_CONTENT = Branch.CONTENT
_DUAL, _REF, _TOK, _WRAP = NodeKind.DUAL, NodeKind.REF, NodeKind.TOK, NodeKind.WRAP


def ascribe(
    doc: XMathDocument,
    vis: VisibilityMap,
    current: XMathNode,
    container: XMathNode | None,
    target_is_container: bool,
) -> XMathNode:
    """Pick the source node for one generated target. Total and pure.

    ``current`` is the XMath node that directly generated the target.
    ``container`` is the innermost dual on the generation walk's path;
    when a ref was followed, that is the dual enclosing the ref, not the
    one physically enclosing the referenced node.

    Containers belong to the notation as a whole: they are ascribed to the
    enclosing dual when there is one. A token visible in both branches is
    its own source. A one-sided token inside a dual stands either for the
    current operator (when that operator never shows up in presentation)
    or for the dual itself.
    """
    if target_is_container:
        if container is not None:
            return container
        return current
    if vis.both_visible(current):
        return current
    if container is not None:
        operator = doc.top_operator(container, _CONTENT)
        if operator is not None and not vis.presentation_visible(operator):
            return operator
        return container
    return current


class BranchWalk:
    """Generation walk over one branch of the XMath tree.

    Duals descend into the walk's own branch and become the container of
    their subtree. Refs are chased to their targets, with the ref's own
    container kept in force, and a ref met again on the current path
    raises ReferenceCycleError. Subclasses set ``branch`` and supply
    ``token`` (a token's unascribed element), ``wrap`` and ``apply``.
    """

    branch: Branch

    def __init__(self, doc: XMathDocument, vis: VisibilityMap):
        self.doc = doc
        self.vis = vis
        self._active_refs: set[int] = set()
        # Token index -> (element, attrs, text) for tokens met while chasing
        # a ref: each is mapped once; every copy gets its own node and attrs.
        self._tokens: dict[int, tuple] = {}

    def target(
        self,
        built: TargetNode,
        current: XMathNode,
        container: XMathNode | None,
        is_container: bool,
    ) -> TargetNode:
        """Record the ascribed source, branch and origin on ``built``."""
        built.source = ascribe(self.doc, self.vis, current, container, is_container)
        built.branch = self.branch
        built.origin = current
        return built

    def walk(self, node: XMathNode, container: XMathNode | None) -> TargetNode:
        kind = node.kind
        if kind is _DUAL:
            return self.walk(node.children[self.branch], node)
        if kind is _REF:
            if node.index in self._active_refs:
                raise ReferenceCycleError("reference cycle via idref", node)
            self._active_refs.add(node.index)
            try:
                return self.walk(self.doc.resolve_ref(node), container)
            finally:
                self._active_refs.discard(node.index)
        if kind is _TOK:
            if not self._active_refs:  # only a ref leads to a token twice
                return self.target(self.token(node), node, container, False)
            made = self._tokens.get(node.index)
            if made is None:
                built = self.token(node)
                made = self._tokens[node.index] = built.element, built.attrs, built.text
            name, attrs, text = made
            source = ascribe(self.doc, self.vis, node, container, False)
            return TargetNode(name, attrs.copy(), [], text, source, self.branch, node)
        if kind is _WRAP:
            return self.wrap(node, container)
        return self.apply(node, container)
