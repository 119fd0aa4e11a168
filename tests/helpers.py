"""Shared test machinery: golden comparison and independent oracles."""

from __future__ import annotations

import gc
import sys
import tracemalloc
from typing import Any, Callable, Iterable

from xmathml import EntityMode, read_xml_tree
from xmathml.serializer import escape_attr, escape_text
from xmathml.mml import TargetNode
from xmathml.model import NodeKind, XMathDocument, XMathNode

#: Token roles named by the grammar. Any other string is accepted verbatim
#: and treated as an unclassified ("other") role.
KNOWN_ROLES = frozenset(
    {
        "ADDOP",
        "MULOP",
        "ID",
        "FUNCTION",
        "OPEN",
        "CLOSE",
        "PUNCT",
        "UNKNOWN",
        "INTOP",
        "DIFFOP",
        "SUPERSCRIPTOP",
        "SUBSCRIPTOP",
    }
)

#: Presentation vocabulary the generator can emit.
PRESENTATION_ELEMENTS = frozenset(
    {"math", "mrow", "mi", "mo", "mn", "msub", "msup", "msubsup"}
)


def same_shape(
    a: TargetNode,
    b: TargetNode,
    *,
    ignore_attrs: Iterable[str] = (),
) -> bool:
    """Structural equality: element, text, attributes and children.

    ``None`` and empty text compare equal, and attribute order is
    irrelevant. ``ignore_attrs`` is typically ("id", "xref").
    """
    ignored = set(ignore_attrs)
    if a.element != b.element:
        return False
    if (a.text or "") != (b.text or ""):
        return False
    attrs_a = {k: v for k, v in a.attrs.items() if k not in ignored}
    attrs_b = {k: v for k, v in b.attrs.items() if k not in ignored}
    if attrs_a != attrs_b:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(
        same_shape(x, y, ignore_attrs=ignored)
        for x, y in zip(a.children, b.children)
    )


def find(root: TargetNode, element: str, text: str | None = None) -> TargetNode | None:
    """First node in document order matching element (and text, if given)."""
    for node in root.iter():
        if node.element == element and (text is None or node.text == text):
            return node
    return None


def nearest_dual_ancestor(doc: XMathDocument, node: XMathNode) -> XMathNode | None:
    """Closest strict ancestor XMDual, by physical structure (not refs).

    This is the container a generation walk passes when it reached
    ``node`` without following a ref.
    """

    def path_to(current: XMathNode) -> list[XMathNode] | None:
        if current is node:
            return []
        for child in current.children:
            path = path_to(child)
            if path is not None:
                return [current] + path
        return None

    ancestors = path_to(doc.root) or []
    return next((n for n in reversed(ancestors) if n.kind is NodeKind.DUAL), None)


def reference_encode(value: str, mode: EntityMode) -> str:
    """Character-by-character numeric encoding: the serializer's reference."""
    if mode is EntityMode.NUMERIC_REFS:
        return "".join(
            ch if ord(ch) < 128 else f"&#x{ord(ch):X};" for ch in value
        )
    return value


def reference_escape_text(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """The replace-chain text escape the serializer's fast paths must equal.

    It leaves a carriage return raw; the serializer writes ``&#13;``.
    """
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return reference_encode(value, mode)


def reference_escape_attr(value: str, mode: EntityMode = EntityMode.UTF8) -> str:
    """The replace-chain attribute escape the serializer's fast paths must equal."""
    value = reference_escape_text(value, mode).replace('"', "&quot;")
    return value.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")


def parse_mathml(text: str) -> TargetNode:
    return read_xml_tree(text)


def bra_ket_chain(
    tag: str, depth: int, texts: tuple[str, str, str] = ("Ψ", "H", "φ")
) -> str:
    """XMath for a <Psi|H|Phi> dual with letter-ending ids (p1 beside
    p1psi), then a chain of ``depth`` compose duals, each using the one
    before twice in both branches, so the bracket is copied 2^(depth+1) - 1
    times per branch."""
    bra, op, ket = texts
    terms = [
        f"<XMDual xml:id='m9.{tag}d0'><XMApp><XMTok meaning='quantum-operator-product'/>"
        f"<XMRef idref='{tag}psi'/><XMRef idref='{tag}'/><XMRef idref='{tag}phi'/></XMApp>"
        "<XMWrap><XMTok role='OPEN'>⟨</XMTok>"
        f"<XMTok role='ID' xml:id='{tag}psi'>{bra}</XMTok>"
        "<XMTok role='CLOSE' stretchy='true'>|</XMTok>"
        f"<XMTok role='ID' font='caligraphic' xml:id='{tag}'>{op}</XMTok>"
        "<XMTok role='OPEN' stretchy='true'>|</XMTok>"
        f"<XMTok role='ID' xml:id='{tag}phi'>{ket}</XMTok>"
        "<XMTok role='CLOSE'>⟩</XMTok></XMWrap></XMDual>"
    ]
    for level in range(1, depth + 1):
        ref = f"<XMRef idref='m9.{tag}d{level - 1}'/>"
        terms.append(
            f"<XMDual xml:id='m9.{tag}d{level}'>"
            f"<XMApp><XMTok meaning='compose'/>{ref}{ref}</XMApp>"
            f"<XMApp><XMTok role='MULOP' meaning='compose'>∘</XMTok>{ref}{ref}</XMApp>"
            "</XMDual>"
        )
    return "".join(terms)


def dual_ref_chain(links: int) -> str:
    """XMath for a chain of ``links`` single-ref duals: dual j applies f to
    a ref to dual j - 1 in both branches, so each link nests one level and
    the walks chase refs ``links`` deep. The duals are stored where no walk
    reaches them directly, and both branches of the root lead to the last."""
    store = ["<XMTok role='ID' xml:id='c0'>x</XMTok>"]
    for j in range(1, links + 1):
        ref = f"<XMRef idref='c{j - 1}'/>"
        store.append(
            f"<XMDual xml:id='c{j}'><XMApp><XMTok meaning='apply-f'/>{ref}</XMApp>"
            f"<XMApp><XMTok role='FUNCTION'>f</XMTok>{ref}</XMApp></XMDual>"
        )
    top = f"<XMRef idref='c{links}'/>"
    return f"<XMDual>{top}<XMDual><XMWrap>{''.join(store)}</XMWrap>{top}</XMDual></XMDual>"


def copied_ref_chains(t_depth: int, u_depth: int, tail_depth: int) -> str:
    """XMath whose generation overflows inside a copy of a ref's subtree.

    The sum's terms are a ref to ``t``; ``t``, an application chain
    ``t_depth`` deep ending in a ref to ``u``; ``u``, a chain ``u_depth``
    deep; and a chain ``tail_depth`` deep ending in a ref to ``t``. The
    first term generates ``t`` and ``u`` once, so the last term's ref copies
    them from the deepest point of the walk.
    """
    level = "<XMTok role='FUNCTION' meaning='f'>f</XMTok>"

    def chain(depth: int, inner: str, xml_id: str | None = None) -> str:
        head = f"<XMApp xml:id='{xml_id}'>" if xml_id else "<XMApp>"
        opened = head + level + ("<XMApp>" + level) * (depth - 1)
        return opened + inner + "</XMApp>" * depth

    return sum_of(
        "<XMRef idref='t'/>",
        chain(t_depth, "<XMRef idref='u'/>", "t"),
        chain(u_depth, "<XMTok>x</XMTok>", "u"),
        chain(tail_depth, "<XMRef idref='t'/>"),
    )


def outcomes_under_rising_limits(
    call: Callable[[], Any],
    done: Callable[[Any], bool] = lambda outcome: not isinstance(outcome, Exception),
) -> list[Any]:
    """Call ``call`` under recursion limits rising by 50 from just above
    the caller's stack depth, until ``done`` holds for an outcome or 40
    limits were tried, restoring the limit after each call. An outcome is
    what the call returned or the exception it raised. The stack then
    runs out at every depth of the call, in steps of 50 frames, whatever
    number of frames the interpreter spends on each level."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    outcomes: list[Any] = []
    for lowered in range(depth + 50, depth + 2_050, 50):
        sys.setrecursionlimit(lowered)
        try:
            outcomes.append(call())
        except Exception as error:
            outcomes.append(error)
        finally:
            sys.setrecursionlimit(limit)
        if done(outcomes[-1]):
            break
    return outcomes


def nested_expansions(applications: int, depth: int) -> tuple[str, str]:
    """An expansion table whose one template nests ``depth`` elements deep,
    and XMath applying its meaning ``applications`` times, each inside the
    one before."""
    rule = "deep 1 " + "(a " * depth + "slot1" + ")" * depth + "\n"
    app = "<XMApp><XMTok meaning='deep'/>"
    return rule, app * applications + "<XMTok>x</XMTok>" + "</XMApp>" * applications


def sum_of(*terms: str) -> str:
    """XMath for the sum of the given XMath terms."""
    return "<XMApp><XMTok role='ADDOP' meaning='plus'>+</XMTok>" + "".join(terms) + "</XMApp>"


def _rename(node: TargetNode, renames: dict[str, str]) -> None:
    node.element = renames.get(node.element, node.element)
    for child in node.children:
        _rename(child, renames)


def assert_isomorphic(
    actual_text: str,
    expected_text: str,
    rename_elements: dict[str, str] | None = None,
) -> None:
    """Assert two MathML documents are equal up to a bijective id renaming.

    Structure, text and all attributes except id/xref must match node for
    node. The id mapping collected from matched nodes must be a bijection,
    and every xref must map through it to the expected xref.
    """
    actual = parse_mathml(actual_text)
    expected = parse_mathml(expected_text)
    if rename_elements:
        _rename(expected, rename_elements)

    id_map: dict[str, str] = {}
    reverse: dict[str, str] = {}
    pairs: list[tuple[TargetNode, TargetNode, str]] = []

    def walk(a: TargetNode, b: TargetNode, path: str) -> None:
        assert a.element == b.element, f"{path}: element {a.element} != {b.element}"
        assert (a.text or "") == (b.text or ""), (
            f"{path}: text {a.text!r} != {b.text!r}"
        )
        plain_a = {k: v for k, v in a.attrs.items() if k not in ("id", "xref")}
        plain_b = {k: v for k, v in b.attrs.items() if k not in ("id", "xref")}
        assert plain_a == plain_b, f"{path}: attrs {plain_a} != {plain_b}"
        assert ("id" in a.attrs) == ("id" in b.attrs), f"{path}: id presence differs"
        assert ("xref" in a.attrs) == ("xref" in b.attrs), (
            f"{path}: xref presence differs"
        )
        if "id" in a.attrs:
            mine, theirs = a.attrs["id"], b.attrs["id"]
            if mine in id_map:
                assert id_map[mine] == theirs, (
                    f"{path}: id {mine} maps to {id_map[mine]} and {theirs}"
                )
            else:
                assert theirs not in reverse, (
                    f"{path}: ids {mine} and {reverse[theirs]} both map to {theirs}"
                )
                id_map[mine] = theirs
                reverse[theirs] = mine
        assert len(a.children) == len(b.children), (
            f"{path}: {len(a.children)} children != {len(b.children)}"
        )
        pairs.append((a, b, path))
        for i, (x, y) in enumerate(zip(a.children, b.children)):
            walk(x, y, f"{path}/{x.element}[{i}]")

    walk(actual, expected, "")
    for a, b, path in pairs:
        if "xref" in a.attrs:
            mapped = id_map.get(a.attrs["xref"])
            assert mapped == b.attrs["xref"], (
                f"{path}: xref {a.attrs['xref']} maps to {mapped}, "
                f"expected {b.attrs['xref']}"
            )


def visibility_oracle(doc: XMathDocument) -> dict[int, frozenset[str]]:
    """Brute-force reachability: enumerate every root-to-node flag path.

    Walks all (node, flag set) states reachable from the root, where duals
    intersect the flags with their branch and refs carry flags across.
    The per-node union over states is the reference visibility.
    """
    flags: dict[int, set[str]] = {node.index: set() for node in doc.nodes}
    seen: set[tuple[int, frozenset[str]]] = set()

    def explore(node, carried: frozenset[str]) -> None:
        state = (node.index, carried)
        if state in seen:
            return
        seen.add(state)
        flags[node.index] |= carried
        if node.kind is NodeKind.DUAL:
            explore(node.children[0], carried & {"C"})
            explore(node.children[1], carried & {"P"})
        elif node.kind is NodeKind.REF:
            explore(doc.resolve_ref(node), carried)
        else:
            for child in node.children:
                explore(child, carried)

    explore(doc.root, frozenset({"C", "P"}))
    return {index: frozenset(value) for index, value in flags.items()}


def oracle_agrees(doc: XMathDocument, vis) -> bool:
    expected = visibility_oracle(doc)
    for node in doc.nodes:
        content, presentation = vis.flags(node)
        reference = expected[node.index]
        if content != ("C" in reference) or presentation != ("P" in reference):
            return False
    return True


def structurally_equal(a: XMathNode, b: XMathNode) -> bool:
    """Compare two trees by shape, text and attributes (not identity)."""
    if a.kind is not b.kind or a.text != b.text:
        return False
    if a.attrs != b.attrs:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


def _xmath_attr_map(node: XMathNode) -> dict[str, str]:
    s = node.attrs
    out: dict[str, str] = {}
    for name, value in (
        ("role", s.role),
        ("meaning", s.meaning),
        ("xml:id", s.xml_id),
        ("idref", s.idref),
        ("font", s.font),
        ("mathstyle", s.mathstyle),
        ("scriptpos", s.scriptpos),
    ):
        if value is not None:
            out[name] = value
    if s.stretchy is not None:
        out["stretchy"] = "true" if s.stretchy else "false"
    return dict(sorted(out.items()))


def serialize_xmath(doc: XMathDocument, *, pretty: bool = True) -> str:
    """Serialize a document back to XMath XML.

    Attribute order is normalized alphabetically, so output is
    deterministic and parse(serialize(d)) is structurally equal to d.
    """
    parts: list[str] = []
    _emit(doc.root, 0, parts, pretty)
    return "".join(parts) + "\n"


def _emit(node: XMathNode, depth: int, parts: list[str], pretty: bool) -> None:
    indent = "  " * depth if pretty else ""
    newline = "\n" if pretty else ""
    name = node.kind.value
    attr_text = "".join(
        f' {key}="{escape_attr(value)}"' for key, value in _xmath_attr_map(node).items()
    )
    if node.kind is NodeKind.TOK:
        if node.text:
            parts.append(f"{indent}<{name}{attr_text}>{escape_text(node.text)}</{name}>")
        else:
            parts.append(f"{indent}<{name}{attr_text}/>")
        parts.append(newline)
    elif not node.children:
        parts.append(f"{indent}<{name}{attr_text}/>{newline}")
    else:
        parts.append(f"{indent}<{name}{attr_text}>{newline}")
        for child in node.children:
            _emit(child, depth + 1, parts, pretty)
        parts.append(f"{indent}</{name}>{newline}")


def traced_peak(call, *args) -> int:
    """The tracemalloc peak, in bytes, of ``call(*args)`` after one
    untraced call (so one-time fills such as compiled patterns are not
    counted) and a collection."""
    call(*args)
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
