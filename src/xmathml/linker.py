"""Id allocation, cross-reference wiring and parallel assembly.

Every generated node gets a stable id derived from its ascribed source:
the source's xml:id when it has one, otherwise a fresh ``prefix.k``
allocated in document order of first appearance. Targets sharing a source
within a branch are distinguished by letter suffixes in document order,
and content-side ids append ".cmml". The same pass connects each node to
the document-order-first opposite-branch node with the same source.
Wrapper ids skip the issued ids as suffixes do.
"""

from __future__ import annotations

import re

from .errors import IdCollisionError
from .mml import TargetNode
from .model import CONTENT, PRESENTATION, Branch, XMathDocument

CONTENT_ID_SUFFIX = ".cmml"

_BRANCH_ORDER = (PRESENTATION, CONTENT)
_DUPLICATE = "id {!r} appears more than once"
_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"  # importing string costs ~1.5 ms
#: The k of a ``prefix.k`` id, matched after the dot: Unicode digits, as
#: ``int`` reads them; what follows them does not matter.
_COUNTER = re.compile(r"\d+")
#: The characters outside XML 1.0's Char production.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class IdScheme:
    """Prefix and counter state for id allocation, and the ids last issued;
    equality and the repr read the prefix and counter only."""

    def __init__(
        self, prefix: str = "m1", next_counter: int = 1, issued: set[str] | None = None
    ) -> None:
        self.prefix = prefix
        self.next_counter = next_counter
        self.issued = set() if issued is None else issued

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.prefix, self.next_counter) == (other.prefix, other.next_counter)

    def __repr__(self) -> str:
        return f"IdScheme(prefix={self.prefix!r}, next_counter={self.next_counter!r})"

    @classmethod
    def infer(cls, doc: XMathDocument) -> "IdScheme":
        """Derive the scheme from the document's existing xml:ids.

        The prefix is the head (before the first dot) of the first id in
        document order that holds a dot, else "m1"; the counter continues
        past the largest k found in ``prefix.k``-shaped ids, so allocated
        ids extend the input sequence instead of colliding with it.
        """
        # id_index is filled in document order.
        prefix = next((i for i in doc.id_index if "." in i), "").split(".", 1)[0] or "m1"
        head = prefix + "."
        highest = 0
        for xml_id in doc.id_index:
            if xml_id.startswith(head):
                match = _COUNTER.match(xml_id, len(head))
                if match:
                    highest = max(highest, int(match.group()))
        return cls(prefix, highest + 1)


class AscriptionRegistry:
    """Every generated target, grouped by source within its branch.

    ``groups[branch]`` maps a source's document index to its nodes in
    that branch's tree, in document order; keys follow first appearance.
    It is indexed by the ``Branch`` value. The generators' walks fill
    such groups as they go and may be handed in here; ``build_registry``
    fills them from finished trees.
    """

    def __init__(
        self,
        presentation: dict[int, list[TargetNode]] | None = None,
        content: dict[int, list[TargetNode]] | None = None,
    ) -> None:
        self.groups: tuple[dict[int, list[TargetNode]], ...] = (
            {} if content is None else content,
            {} if presentation is None else presentation,
        )

    @property
    def targets(self) -> dict[tuple[int, Branch], list[TargetNode]]:
        """Derived, read-only view: ``{(source index, branch): nodes}``,
        keyed by first appearance, presentation before content."""
        return {
            (index, branch): nodes
            for branch in _BRANCH_ORDER
            for index, nodes in self.groups[branch].items()
        }


def build_registry(
    pmml: TargetNode | None = None, cmml: TargetNode | None = None
) -> AscriptionRegistry:
    """Group the nodes of each tree given by source, in document order."""
    registry = AscriptionRegistry()
    for branch, root in ((PRESENTATION, pmml), (CONTENT, cmml)):
        groups = registry.groups[branch]
        get = groups.get
        stack = [] if root is None else [root]
        while stack:
            node = stack.pop()
            source = node.source
            if source is None:
                raise ValueError(f"unascribed node {node!r} reached the linker")
            group = get(source.index)
            if group is None:
                groups[source.index] = [node]
            else:
                group.append(node)
            if node.children:
                stack.extend(reversed(node.children))
    return registry


def _suffix_letters(index: int) -> str:
    """0 -> "", 1 -> "a", ..., 26 -> "z", 27 -> "aa" (spreadsheet style)."""
    letters = ""
    while index > 0:
        index -= 1
        letters = chr(ord("a") + index % 26) + letters
        index //= 26
    return letters


# The suffixes "", a-z, aa-zz of a source's first 703 nodes within a branch.
_SUFFIXES = ("", *_LOWERCASE, *(a + b for a in _LOWERCASE for b in _LOWERCASE))


def assign_ids(registry: AscriptionRegistry, scheme: IdScheme) -> None:
    """Set the id, and the xref where both branches are built, of every
    registered target node.

    A source's base id is its xml:id, else the next fresh ``prefix.k``;
    fresh ids are handed out by each source's first appearance,
    presentation before content. Each source's first node in a branch
    takes the base id; its later nodes take letter suffixes, skipping
    any id issued to another node, so they never take another source's
    id. A source in both branches links its presentation nodes to its
    first content id and its content nodes to its base. The ids it sets
    are recorded as ``scheme.issued``.
    """
    bases: dict[int, str] = {}
    counter = scheme.next_counter
    issued: set[str] = set()
    add = issued.add
    shared: list[tuple[list[TargetNode], str, str]] = []
    presentation = registry.groups[PRESENTATION]
    # First ids first, so that no suffixed id can take one.
    for branch in _BRANCH_ORDER:
        suffix = CONTENT_ID_SUFFIX if branch is CONTENT else ""
        for index, nodes in registry.groups[branch].items():
            base = bases.get(index)
            linked = base is not None  # only a content group finds a base
            if not linked:
                base = nodes[0].source.attrs.xml_id
                if base is None:
                    base = f"{scheme.prefix}.{counter}"
                    counter += 1
                bases[index] = base
            node_id = base + suffix
            if node_id in issued:
                message = f"output id {node_id!r} allocated twice"
                raise IdCollisionError(message, nodes[0].source)
            nodes[0].attrs["id"] = node_id
            add(node_id)
            if len(nodes) > 1:
                shared.append((nodes, base, suffix))
            if linked:
                for node in presentation[index]:
                    node.attrs["xref"] = node_id
                for node in nodes:
                    node.attrs["xref"] = base
    for nodes, base, suffix in shared:
        k = 0
        node_id = base + suffix  # issued: the loop below moves past it
        for node in nodes[1:]:
            while node_id in issued:
                k += 1
                letters = _SUFFIXES[k] if k < 703 else _suffix_letters(k)
                node_id = base + letters + suffix
            node.attrs["id"] = node_id
            add(node_id)
    scheme.issued = issued


def link_xrefs(registry: AscriptionRegistry) -> None:
    """Does nothing: ``assign_ids`` sets the xrefs. Kept because
    ``perfbench`` still times it as a layer of its own."""


def _free_ids(scheme: IdScheme, count: int) -> list[str]:
    """The first ``count`` of prefix, prefix+a, prefix+b, ... not issued."""
    free: list[str] = []
    k = 0
    while len(free) < count:
        wrapper_id = scheme.prefix + (_SUFFIXES[k] if k < 703 else _suffix_letters(k))
        if wrapper_id not in scheme.issued:
            free.append(wrapper_id)
        k += 1
    return free


def assemble_parallel(
    pmml: TargetNode,
    cmml: TargetNode,
    tex: str | None = None,
    display: str | None = None,
    *,
    scheme: IdScheme,
) -> TargetNode:
    """Wrap linked presentation and content trees into one math element.

    The math/semantics/annotation-xml/annotation wrappers take, in that
    order, the first of prefix, prefix+a, prefix+b, ... not among
    ``scheme.issued``, and never carry xrefs. The TeX annotation (and
    alttext) appear only when tex is given. A tex or display that XML
    cannot hold raises ValueError.
    """
    math_id, semantics_id, content_id, tex_id = _free_ids(scheme, 4)
    semantics = TargetNode("semantics", {"id": semantics_id}, [pmml])
    annotation_xml = TargetNode(
        "annotation-xml", {"id": content_id, "encoding": "MathML-Content"}, [cmml]
    )
    semantics.children.append(annotation_xml)
    if tex is not None:
        annotation = {"id": tex_id, "encoding": "application/x-tex"}
        semantics.children.append(TargetNode("annotation", annotation, text=tex))
    return _math(semantics, math_id, display, tex)


def assemble_single(
    root: TargetNode,
    display: str | None = None,
    *,
    scheme: IdScheme,
) -> TargetNode:
    """Wrap a single-branch tree (ids, no xrefs) into a bare math element."""
    return _math(root, _free_ids(scheme, 1)[0], display, None)


def _math(
    child: TargetNode, math_id: str, display: str | None, tex: str | None
) -> TargetNode:
    """The outer math element. A display or tex holding a character outside
    XML 1.0's Char production raises ValueError naming it."""
    for name, value in (("display", display), ("tex", tex)):
        bad = value and _NOT_XML_CHAR.search(value)
        if bad:
            raise ValueError(f"{name} holds U+{ord(bad[0]):04X}, which XML cannot hold")
    attrs = {"id": math_id, "display": display, "alttext": tex, "class": "ltx_Math"}
    return TargetNode("math", {k: v for k, v in attrs.items() if v is not None}, [child])


# -- link contract validation -----------------------------------------------


class LinkViolation:
    def __init__(self, kind: str, message: str) -> None:
        self.kind = kind
        self.message = message

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


class LinkReport:
    def __init__(self, violations: list[LinkViolation] | None = None) -> None:
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        return [str(v) for v in self.violations]

    def add(self, kind: str, message: str) -> None:
        self.violations.append(LinkViolation(kind, message))


def _locate_branches(math: TargetNode) -> tuple[TargetNode, TargetNode]:
    if math.element != "math":
        raise ValueError("expected a math element")
    if len(math.children) != 1 or math.children[0].element != "semantics":
        raise ValueError("math must contain exactly one semantics element")
    semantics = math.children[0]
    presentation = None
    content = None
    for child in semantics.children:
        if child.element == "annotation-xml":
            if child.attrs.get("encoding") == "MathML-Content" and child.children:
                content = child.children[0]
        elif child.element != "annotation" and presentation is None:
            presentation = child
    if presentation is None or content is None:
        raise ValueError("not a parallel markup instance")
    return presentation, content


def check_links(math: TargetNode) -> LinkReport:
    """Validate the cross-referencing contract of an assembled math element.

    Finds repeated ids (``id-uniqueness``), side nodes without an id
    (``id-missing``), xrefs on wrappers (``wrapper-xref``), missing xrefs
    (``missing-xref``), xrefs naming no id (``xref-resolution``) or an id
    carried only on the same side or by a wrapper (``xref-branch``), and
    xref targets of another source class (``shared-source``) or not the
    class's first node in the opposite tree (``document-order``). An xref
    resolves to the first node carrying its id in the opposite tree.

    Classes come from ids and xrefs alone, so a tree reads the same in
    memory and re-parsed. Valid output is a star around each class's
    first content node, its anchor: presentation xrefs name the anchor,
    content xrefs name a presentation node whose xref names it. A node
    whose id (less .cmml on the content side) is the anchor's id (less
    .cmml) plus zero or more a-z joins the anchor's class; any other
    node is classed by its id less trailing a-z. So a presentation-only
    or content-only node whose input id extends a linked base by letters
    reads as a copy that lost its xref.
    """
    report = LinkReport()
    presentation, content = _locate_branches(math)

    # One walk in document order: the first node carrying each id, the
    # first carrying it on each side, and every node sorted into the
    # presentation side, the content side or the wrappers around them.
    all_ids: dict[str, TargetNode] = {}
    side_ids: dict[Branch, dict[str, TargetNode]] = {PRESENTATION: {}, CONTENT: {}}
    sides: dict[Branch, list[TargetNode]] = {PRESENTATION: [], CONTENT: []}
    wrappers: list[TargetNode] = []

    def walk_side(root: TargetNode, branch: Branch) -> None:
        bucket = sides[branch]
        first_on_side = side_ids[branch].setdefault
        stack = [root]
        while stack:
            node = stack.pop()
            bucket.append(node)
            node_id = node.attrs.get("id")
            if node_id is not None:
                if all_ids.setdefault(node_id, node) is not node:
                    report.add("id-uniqueness", _DUPLICATE.format(node_id))
                first_on_side(node_id, node)
            if node.children:
                stack.extend(reversed(node.children))

    stack = [math]
    while stack:
        node = stack.pop()
        if node is presentation:
            walk_side(node, PRESENTATION)
        elif node is content:
            walk_side(node, CONTENT)
        else:
            wrappers.append(node)
            node_id = node.attrs.get("id")
            if node_id is not None and all_ids.setdefault(node_id, node) is not node:
                report.add("id-uniqueness", _DUPLICATE.format(node_id))
            stack.extend(reversed(node.children))
    unique = not report.violations  # only id-uniqueness is reported so far
    content_ids = side_ids[CONTENT]
    presentation_ids = side_ids[PRESENTATION]
    bases: dict[str, str] = {}  # anchor id -> its id less .cmml

    def classify(nodes: list[TargetNode], branch: Branch) -> tuple[dict, dict]:
        """Each id-carrying node's class, and each class's first id."""
        class_of, first_of = {}, {}
        on_content = branch is CONTENT
        for node in nodes:
            attrs = node.attrs
            node_id = attrs.get("id")
            if node_id is None:
                report.add("id-missing", f"{node.element} node carries no id")
                continue
            cls = node_id.removesuffix(CONTENT_ID_SUFFIX) if on_content else node_id
            anchor = attrs.get("xref")
            if on_content and anchor is not None:
                target = presentation_ids.get(anchor)
                anchor = None if target is None else target.attrs.get("xref")
            base = bases.get(anchor)
            if base is None and anchor in content_ids:
                base = bases[anchor] = anchor.removesuffix(CONTENT_ID_SUFFIX)
            if base is not None and (
                cls == base or cls.startswith(base) and not cls[len(base) :].strip(_LOWERCASE)
            ):
                cls = base
            else:
                cls = cls.rstrip(_LOWERCASE) or cls
            class_of[node] = cls
            first_of.setdefault(cls, node_id)
        return class_of, first_of

    classified = {branch: classify(nodes, branch) for branch, nodes in sides.items()}

    for node in wrappers:
        if "xref" in node.attrs:
            report.add("wrapper-xref", f"wrapper {node.element} must not carry xref")

    for branch, (class_of, _) in classified.items():
        opposite_classes, opposite_firsts = classified[branch.opposite]
        opposite_ids = side_ids[branch.opposite]
        for node, cls in class_of.items():
            xref = node.attrs.get("xref")
            opposite_first = opposite_firsts.get(cls)
            # With every id unique, an xref naming its class's first
            # opposite node (or no xref where there is none) passes all.
            if xref == opposite_first and unique:
                continue
            node_id = node.attrs["id"]
            if xref is None:
                if opposite_first is not None:
                    report.add(
                        "missing-xref",
                        f"{node_id} has opposite-branch targets but no xref",
                    )
            elif xref not in all_ids:
                report.add(
                    "xref-resolution",
                    f"{node_id} points at {xref!r}, which does not exist",
                )
            elif (target := opposite_ids.get(xref)) is None:
                where = "in the same branch" if xref in side_ids[branch] else "on a wrapper"
                report.add("xref-branch", f"{node_id} points at {xref!r} {where}")
            elif cls != opposite_classes[target]:
                report.add(
                    "shared-source",
                    f"{node_id} and its xref target {xref} have different sources",
                )
            elif opposite_first is not None and xref != opposite_first:
                report.add(
                    "document-order",
                    f"{node_id} should point at {opposite_first}, not {xref}",
                )
    return report
