"""Choice of the source XMath node recorded on every generated MathML node.

Cross-references are later derived purely from these sources: two output
nodes are linked when they were ascribed the same source. The decision
procedure distinguishes container targets (rows, applies, script boxes)
from token targets, and for tokens invisible to the opposite branch it
decides between the operator they manifest and the enclosing dual.
"""

from __future__ import annotations

from .errors import ConversionError, MalformedApplyError, ReferenceCycleError
from .mml import TargetNode
from .model import DUAL, REF, TOK, WRAP, Branch, XMathDocument, XMathNode
from .visibility import VisibilityMap


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
        operator = doc.top_operator(container)
        if operator is not None and not vis.presentation_visible(operator):
            return operator
        return container
    return current


class BranchWalk:
    """Generation walk over one branch of the XMath tree.

    Duals descend into the walk's own branch and become the container of
    their subtree. A ref chain is chased in one step to its end, with the
    ref's own container kept in force. The subtree a ref leads to is
    generated once per (target, container) pair and copied on later
    visits; a ref to a pair still being generated closes a cycle and
    raises ReferenceCycleError. A ref whose generation or copy runs past
    the interpreter's stack raises ConversionError. Subclasses set
    ``branch`` and supply ``token`` (a token's unascribed element),
    ``wrap`` and ``apply`` (a non-empty XMApp).

    ``groups`` maps each source's document index to the nodes ascribed
    to it, in the order they are made. Subclasses target a container
    before they walk its children, and a copy registers its nodes in
    pre-order, so each group is in document order and the keys follow
    first appearance, as ``build_registry`` would group the finished tree.
    A node walked and then discarded (a fused msubsup's msub) leaves its
    group, and the key goes if that empties it; a later copy rejoins.
    """

    branch: Branch

    def __init__(self, doc: XMathDocument, vis: VisibilityMap):
        self.doc = doc
        self.vis = vis
        # (ref target index, container index or -1) -> first subtree made,
        # or None while it is being made.
        self._made: dict[tuple[int, int], TargetNode | None] = {}
        self.groups: dict[int, list[TargetNode]] = {}

    def target(
        self,
        built: TargetNode,
        current: XMathNode,
        container: XMathNode | None,
        is_container: bool,
    ) -> TargetNode:
        """Record the ascribed source and origin on ``built`` and add it to
        its source's group."""
        source = built.source = ascribe(
            self.doc, self.vis, current, container, is_container
        )
        built.origin = current
        group = self.groups.get(source.index)
        if group is None:
            self.groups[source.index] = [built]
        else:
            group.append(built)
        return built

    def walk(self, node: XMathNode, container: XMathNode | None) -> TargetNode:
        kind = node.kind
        if kind is DUAL:
            return self.walk(node.children[self.branch], node)
        if kind is REF:
            target = self.doc.deref(node)
            key = target.index, -1 if container is None else container.index
            made = self._made.get(key)
            try:
                if made is not None:
                    return self._clone(made)
                if key in self._made:  # still being generated: a cycle
                    raise ReferenceCycleError("reference cycle via idref", node)
                self._made[key] = None
                made = self._made[key] = self.walk(target, container)
            except RecursionError:
                raise ConversionError("refs nested too deeply to follow", node) from None
            return made
        if kind is TOK:
            return self.target(self.token(node), node, container, False)
        if kind is WRAP:
            return self.wrap(node, container)
        if not node.children:
            raise MalformedApplyError("XMApp without an operator", node)
        return self.apply(node, container)

    def _clone(self, node: TargetNode) -> TargetNode:
        """Deep copy of a subtree made by this walk, with its own attrs and
        children, each node added to its source's group in pre-order."""
        copy = _new_node(TargetNode)  # every field is set below
        copy.element = node.element
        copy.attrs = node.attrs.copy()
        copy.text = node.text
        source = copy.source = node.source
        copy.origin = node.origin
        try:
            self.groups[source.index].append(copy)
        except KeyError:  # a fused msub left its group, and its copy rejoins
            self.groups[source.index] = [copy]
        children = node.children
        # Not list(map()): that starts at 8 slots and keeps them for 4
        # children, where a comprehension grows the list as generation did.
        copy.children = [self._clone(child) for child in children] if children else []
        return copy


_new_node = object.__new__
