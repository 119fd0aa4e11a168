"""Tree model for LaTeXML's hybrid math markup (XMath).

The XMath dialect mixes content-oriented structure (applications, tokens
with meanings) with presentation material (delimiters, script operators).
Five element kinds occur:

* ``XMApp``  -- generalized application, operator first;
* ``XMTok``  -- generalized token, carries text and semantic attributes;
* ``XMDual`` -- pairs a content branch (child 0) with a presentation
  branch (child 1) for notations whose two readings differ structurally;
* ``XMRef``  -- shares one node between both branches of a dual, via
  ``xml:id``/``idref``;
* ``XMWrap`` -- wrapper for unparsed token runs (renders like a row).

Documents are immutable after construction and safe to read concurrently.
"""

from __future__ import annotations

from enum import Enum, IntEnum

from .errors import ParseError, ParseErrorKind, ReferenceCycleError


class NodeKind(Enum):
    APP = "XMApp"
    TOK = "XMTok"
    DUAL = "XMDual"
    REF = "XMRef"
    WRAP = "XMWrap"


#: element local name -> node kind; anything else is a parse error.
ELEMENT_KINDS = {kind.value: kind for kind in NodeKind}


class Branch(IntEnum):
    """Which side of a dual (and which output tree) is meant.

    The numeric value doubles as the child index within an ``XMDual``.
    """

    CONTENT = 0
    PRESENTATION = 1

    @property
    def opposite(self) -> "Branch":
        return _OPPOSITE[self]


# Bound once for all modules: per node, an enum class lookup costs ~10x a global.
APP, TOK, DUAL = NodeKind.APP, NodeKind.TOK, NodeKind.DUAL
REF, WRAP = NodeKind.REF, NodeKind.WRAP
CONTENT, PRESENTATION = Branch.CONTENT, Branch.PRESENTATION
_OPPOSITE = (PRESENTATION, CONTENT)


class SemanticAttrs:
    """The eight XMath attributes the converter reads; the parser ignores others."""

    __slots__ = (
        "role", "meaning", "xml_id", "idref", "font", "mathstyle", "stretchy", "scriptpos"
    )

    def __init__(
        self,
        role: str | None = None,
        meaning: str | None = None,
        xml_id: str | None = None,
        idref: str | None = None,
        font: str | None = None,
        mathstyle: str | None = None,
        stretchy: bool | None = None,
        scriptpos: str | None = None,
    ) -> None:
        # One field per statement: a packed assignment builds a tuple.
        self.role = role
        self.meaning = meaning
        self.xml_id = xml_id
        self.idref = idref
        self.font = font
        self.mathstyle = mathstyle
        self.stretchy = stretchy
        self.scriptpos = scriptpos

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


class XMathNode:
    """One node of the XMath tree. Identity equality; never mutated after parse."""

    __slots__ = ("kind", "children", "text", "attrs", "index", "line", "col")

    def __init__(
        self,
        kind: NodeKind,
        children: list[XMathNode] | None = None,
        text: str | None = None,
        attrs: SemanticAttrs | None = None,
        index: int = -1,  # document-order position, set as its document is built
        line: int = 0,
        col: int = 0,
    ) -> None:
        self.kind = kind
        self.children = [] if children is None else children
        self.text = text
        self.attrs = SemanticAttrs() if attrs is None else attrs
        self.index = index
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # compact, for test failure output
        bits = [self.kind.value]
        if self.attrs.xml_id:
            bits.append(f"id={self.attrs.xml_id}")
        if self.attrs.meaning:
            bits.append(f"meaning={self.attrs.meaning}")
        if self.text:
            bits.append(repr(self.text))
        return "<{} #{}>".format(" ".join(bits), self.index)


class XMathDocument:
    """An XMath tree plus its id index, validated on construction.

    ``nodes`` lists every node in document order (depth-first, left to
    right); ``node.index`` is the position in that list. A repeated
    xml:id or an idref naming no xml:id raises ParseError at the
    offending node, whether the tree came from the parser or was built
    by hand.
    """

    def __init__(self, root: XMathNode):
        nodes: list[XMathNode] = []
        ids: list[XMathNode] = []  # nodes with an xml:id, in order
        refs: list[XMathNode] = []  # nodes with an idref, in order
        stack = [root]  # pre-order, without a frame per level
        while stack:
            node = stack.pop()
            node.index = len(nodes)
            nodes.append(node)
            if node.attrs.xml_id is not None:
                ids.append(node)
            if node.attrs.idref is not None:
                refs.append(node)
            stack.extend(reversed(node.children))
        self._index(nodes, ids, refs)

    @classmethod
    def _indexed(
        cls, nodes: list[XMathNode], ids: list[XMathNode], refs: list[XMathNode]
    ) -> "XMathDocument":
        """The document over ``nodes``, numbered in document order, given
        with its nodes that carry an xml:id and an idref, each in order."""
        doc = cls.__new__(cls)
        doc._index(nodes, ids, refs)
        return doc

    def _index(
        self, nodes: list[XMathNode], ids: list[XMathNode], refs: list[XMathNode]
    ) -> None:
        self.root = nodes[0]
        self.nodes = nodes
        self.id_index: dict[str, XMathNode] = {}
        self._ends: dict[int, XMathNode] = {}  # ref index -> deref result
        for node in ids:
            xml_id = node.attrs.xml_id
            if xml_id in self.id_index:
                raise ParseError(
                    ParseErrorKind.DUPLICATE_ID,
                    node.line,
                    node.col,
                    f"duplicate xml:id {xml_id!r}",
                )
            self.id_index[xml_id] = node
        for node in refs:
            if node.attrs.idref not in self.id_index:
                raise ParseError(
                    ParseErrorKind.DANGLING_IDREF,
                    node.line,
                    node.col,
                    f"idref {node.attrs.idref!r} does not match any xml:id",
                )

    def resolve_ref(self, ref_node: XMathNode) -> XMathNode:
        """Resolve an XMRef one step, to the node carrying its idref as xml:id."""
        if ref_node.kind is not REF:
            raise ValueError("resolve_ref expects an XMRef node")
        return self.id_index[ref_node.attrs.idref]

    def deref(self, node: XMathNode) -> XMathNode:
        """Follow XMRef chains to a non-ref node, guarding against cycles.

        Each ref's end is remembered, so every link is followed once;
        threads that race on an entry store the same end."""
        if node.kind is not REF:
            return node
        end = self._ends.get(node.index)
        if end is not None:
            return end
        seen: set[int] = set()
        while node.kind is REF:
            if node.index in seen:
                raise ReferenceCycleError("reference cycle via idref", node)
            seen.add(node.index)
            node = self._ends.get(node.index) or self.resolve_ref(node)
        self._ends.update(dict.fromkeys(seen, node))
        return node

    def top_operator(self, dual: XMathNode) -> XMathNode | None:
        """Top-most operator applied within the content branch of a dual.

        Refs are chased both for the branch root and for the operator
        position; a branch that is not an application has no operator.
        """
        if dual.kind is not DUAL:
            raise ValueError("top_operator expects an XMDual node")
        root = self.deref(dual.children[CONTENT])
        if root.kind is not APP or not root.children:
            return None
        return self.deref(root.children[0])
