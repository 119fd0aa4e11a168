"""Content MathML generation, the meaning table and pragmatic expansion.

Tokens map through a meaning table: known meanings become empty content
elements (plus, int, ...), unknown meanings become csymbol entries in the
latexml dictionary, and meaning-less tokens become ci identifiers. An
application whose operator meaning has an expansion rule is rewritten into
a pragmatic template (head element, wrapper elements like bvar/lowlimit,
reordered argument slots) instead of a plain apply.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from types import MappingProxyType

from .ascription import BranchWalk
from .errors import ArityMismatchError, ContentWrapError, ConversionError
from .glyphs import is_greek_capital, script_form
from .mml import TargetNode
from .model import CONTENT, TOK, XMathDocument, XMathNode
from .parser import MAX_NESTING_DEPTH
from .visibility import VisibilityMap

#: Meanings rendered as bare pragmatic content elements. Most map to the
#: element of the same name; aliases cover the integral spellings.
_IDENTITY_ELEMENTS = (
    "plus minus times divide power root abs conjugate factorial quotient rem "
    "gcd lcm max min exp ln log sin cos tan sec csc cot sinh cosh tanh "
    "arcsin arccos arctan eq neq gt lt geq leq and or xor not implies "
    "forall exists union intersect setdiff subset prsubset in notin "
    "sum product limit diff partialdiff compose ident "
    "emptyset infinity pi imaginaryi exponentiale"
)

KNOWN_CONTENT_ELEMENTS: Mapping[str, str] = MappingProxyType(
    {name: name for name in _IDENTITY_ELEMENTS.split()}
    | {"integral": "int", "hack-definite-integral": "int"}
)

#: Template terms: ("head",) renders the operator token, ("slot", k) the
#: k-th argument, ("elem", name, children) a literal element. A literal
#: element with no children stands in for the operator, like head.
Term = tuple


class _ReadOnly:
    """Fields are set once, in ``__init__``; assigning to or deleting one
    raises AttributeError."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ExpansionRule(_ReadOnly):
    """Rewrites one application into a pragmatic content template."""

    def __init__(self, meaning: str, arity: int, template: Term) -> None:
        slots = sorted(_collect_slots(template))
        if slots != list(range(1, arity + 1)):
            raise ValueError(
                f"rule for {meaning!r}: template slots {slots} are not "
                f"a permutation of 1..{arity}"
            )
        vars(self).update(meaning=meaning, arity=arity, template=template)


def _collect_slots(term: Term) -> list[int]:
    if term[0] == "slot":
        return [term[1]]
    if term[0] == "elem":
        out: list[int] = []
        for child in term[2]:
            out.extend(_collect_slots(child))
        return out
    return []


_TEMPLATE_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_SLOT = re.compile(r"slot(\d+)$")
_ELEMENT_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9._-]*")


def _element_name(token: str, context: str) -> str:
    if not _ELEMENT_NAME.fullmatch(token):
        raise ValueError(f"{context}: {token!r} is not an element name")
    return token


def _parse_template(text: str, context: str) -> Term:
    """Read one template term in one pass over its tokens, with the open
    elements and their children so far on a stack. The first fault in
    reading order is the one reported."""
    tokens = iter(_TEMPLATE_TOKEN.findall(text))
    top: list[Term] = []  # the template's term, once it is complete
    open_elements: list[tuple[str, list[Term]]] = [("", top)]
    for token in tokens:
        if token not in ("(", ")"):
            _element_name(token, context)
        if token == ")":
            if len(open_elements) == 1:
                raise ValueError(f"{context}: unexpected ')'")
            name, children = open_elements.pop()
            term = ("elem", name, tuple(children))
        elif top:
            raise ValueError(f"{context}: trailing tokens after template")
        elif token == "(":
            if len(open_elements) > MAX_NESTING_DEPTH:
                raise ValueError(f"{context}: nesting deeper than {MAX_NESTING_DEPTH}")
            name = next(tokens, ")")
            if name in ("(", ")"):
                raise ValueError(f"{context}: expected element name after '('")
            open_elements.append((_element_name(name, context), []))
            continue
        elif token == "head":
            term = ("head",)
        elif slot := _SLOT.match(token):
            if int(slot.group(1)) < 1:
                raise ValueError(f"{context}: slot indices start at 1")
            term = ("slot", int(slot.group(1)))
        else:
            term = ("elem", token, ())
        open_elements[-1][1].append(term)
    if len(open_elements) > 1:
        raise ValueError(f"{context}: missing ')'")
    return top[0]


def load_expansion_table(text: str) -> dict[str, ExpansionRule]:
    """Parse the line-oriented expansion table format.

    Each non-comment line reads ``meaning arity template`` where template
    is a parenthesized term over head, slotN and element names.
    """
    rules: dict[str, ExpansionRule] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 2)
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 'meaning arity template'")
        meaning, arity_text, template_text = fields
        if not arity_text.isdecimal():
            raise ValueError(f"line {lineno}: arity must be an integer")
        template = _parse_template(template_text, f"line {lineno}")
        try:
            rules[meaning] = ExpansionRule(meaning, int(arity_text), template)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return rules


BUILTIN_EXPANSIONS = """
# meaning                 arity  template
hack-definite-integral    4      (apply head (bvar slot4) (lowlimit slot1) (uplimit slot2) slot3)
"""


class MeaningTable(_ReadOnly):
    """Expansion rules, by the meaning of the operator they rewrite."""

    def __init__(self, expansions: Mapping[str, ExpansionRule]) -> None:
        vars(self)["expansions"] = expansions

    @staticmethod
    def default() -> "MeaningTable":
        """The built-in table: one shared, read-only instance."""
        return _DEFAULT_TABLE

    def extended(self, rules: Mapping[str, ExpansionRule]) -> "MeaningTable":
        merged = dict(self.expansions)
        merged.update(rules)
        return MeaningTable(merged)


_DEFAULT_TABLE = MeaningTable(
    MappingProxyType(load_expansion_table(BUILTIN_EXPANSIONS))
)


def token_to_cmml(tok: XMathNode) -> TargetNode:
    """Map one token to its content element.

    Identifier text follows the token's font: upright Greek capitals get a
    "normal-" prefix, calligraphic letters their script code point.
    """
    meaning = tok.attrs.meaning
    if meaning is not None:
        element = KNOWN_CONTENT_ELEMENTS.get(meaning)
        if element is not None:
            return TargetNode(element)
        return TargetNode("csymbol", {"cd": "latexml"}, [], meaning)
    return TargetNode("ci", {}, [], _identifier_text(tok))


def _identifier_text(tok: XMathNode) -> str:
    text = tok.text or ""
    font = tok.attrs.font
    if font == "caligraphic":
        return script_form(text)
    if font in (None, "normal") and is_greek_capital(text):
        return "normal-" + text
    return text


def gen_cmml(
    doc: XMathDocument, vis: VisibilityMap, table: MeaningTable | None = None
) -> TargetNode:
    """Generate the content tree for a whole document."""
    return ContentWalk(doc, vis, table).walk(doc.root, None)


class ContentWalk(BranchWalk):
    branch = CONTENT
    token = staticmethod(token_to_cmml)

    def __init__(
        self, doc: XMathDocument, vis: VisibilityMap, table: MeaningTable | None = None
    ):
        super().__init__(doc, vis)
        self.table = table or MeaningTable.default()

    def wrap(self, node: XMathNode, container: XMathNode | None) -> TargetNode:
        name = node.attrs.xml_id or f"node {node.index}"
        raise ContentWrapError(
            f"XMWrap ({name}) is reachable from the content branch and has "
            "no content reading",
            node,
        )

    def apply(self, app: XMathNode, container: XMathNode | None) -> TargetNode:
        op = self.doc.deref(app.children[0])
        rule = self.table.expansions.get(op.attrs.meaning) if op.kind is TOK else None
        if rule is None:
            built = self.target(TargetNode("apply"), app, container, True)
            built.children = [self.walk(child, container) for child in app.children]
            return built
        args = app.children[1:]
        if len(args) != rule.arity:
            raise ArityMismatchError(
                f"{rule.meaning} expects {rule.arity} arguments, found {len(args)}",
                app,
            )
        try:
            return self._instantiate(rule.template, app, op, args, container)
        except RecursionError:
            raise ConversionError("expansions nested too deeply", app) from None

    def _instantiate(
        self,
        term: Term,
        app: XMathNode,
        op: XMathNode,
        args: list[XMathNode],
        container: XMathNode | None,
    ) -> TargetNode:
        tag = term[0]
        if tag == "head":
            return self.target(self.token(op), op, container, False)
        if tag == "slot":
            return self.walk(args[term[1] - 1], container)
        name, subterms = term[1], term[2]
        if not subterms:
            # A bare element atom is the operator's manifestation, like head.
            return self.target(TargetNode(name), op, container, False)
        built = self.target(TargetNode(name), app, container, True)
        built.children = [
            self._instantiate(sub, app, op, args, container) for sub in subterms
        ]
        return built
