"""Presentation MathML generation from the XMath tree.

The walk follows the presentation view: the second branch of every dual,
refs chasing to their targets, wraps and applications becoming rows. Every
produced node carries its ascribed source so the linker can wire xrefs.
"""

from __future__ import annotations

from .ascription import BranchWalk
from .glyphs import is_greek_capital, script_form
from .mml import TargetNode
from .model import APP, PRESENTATION, TOK, XMathDocument, XMathNode
from .visibility import VisibilityMap

APPLY_FUNCTION = "⁡"
INVISIBLE_TIMES = "⁢"

#: Roles rendered as operator tokens (mo); everything else is mi/mn.
MO_ROLES = frozenset(
    {
        "OPEN",
        "CLOSE",
        "PUNCT",
        "ADDOP",
        "MULOP",
        "INTOP",
        "DIFFOP",
        "SUPERSCRIPTOP",
        "SUBSCRIPTOP",
    }
)

#: Roles laid out n-ary infix, one operator token per argument gap.
INFIX_ROLES = frozenset({"ADDOP", "MULOP", "RELOP", "BINOP"})

#: Large-operator roles; a display mathstyle on one of these promotes the
#: whole formula to display="block".
LARGEOP_ROLES = frozenset({"INTOP", "SUMOP", "BIGOP", "LIMITOP"})


def token_to_pmml(tok: XMathNode) -> TargetNode:
    """Map one token to its presentation element, attributes and text.

    Operator roles give mo; identifier-like roles give mi, or mn when the
    text is all digits. Fonts translate as: italic is the default for
    single-letter identifiers (no attribute), "normal" and upright Greek
    capitals force mathvariant="normal", and calligraphic letters move to
    their script code points with the ltx class. mathstyle is handled at
    the math level, not here.
    """
    role = tok.attrs.role
    text = tok.text or ""
    if role in MO_ROLES:
        element = "mo"
    elif text.isdigit() and text.isascii():
        element = "mn"
    else:
        element = "mi"

    attrs: dict[str, str] = {}
    font = tok.attrs.font
    if element == "mi":
        if font == "caligraphic":
            attrs["class"] = "ltx_font_mathcaligraphic"
            text = script_form(text)
        elif font == "normal" or (font is None and is_greek_capital(text)):
            attrs["mathvariant"] = "normal"
        elif font == "italic" and len(text) > 1:
            attrs["mathvariant"] = "italic"
    if tok.attrs.stretchy is not None:
        attrs["stretchy"] = "true" if tok.attrs.stretchy else "false"
    if role == "INTOP":
        attrs["largeop"] = "true"
        attrs["symmetric"] = "true"
    if role in ("OPEN", "CLOSE") and tok.attrs.stretchy:
        attrs["fence"] = "true"
    return TargetNode(element, attrs, [], text)


def gen_pmml(doc: XMathDocument, vis: VisibilityMap) -> TargetNode:
    """Generate the presentation tree for a whole document."""
    return PresentationWalk(doc, vis).walk(doc.root, None)


class PresentationWalk(BranchWalk):
    branch = PRESENTATION
    token = staticmethod(token_to_pmml)

    def wrap(self, node: XMathNode, container: XMathNode | None) -> TargetNode:
        row = self.target(TargetNode("mrow"), node, container, True)
        row.children = [self.walk(child, container) for child in node.children]
        return row

    def apply(self, app: XMathNode, container: XMathNode | None) -> TargetNode:
        op_node = app.children[0]
        args = app.children[1:]
        op = self.doc.deref(op_node)
        role = op.attrs.role if op.kind is TOK else None

        element = "mrow"
        scripted = role in ("SUPERSCRIPTOP", "SUBSCRIPTOP") and len(args) == 2
        if scripted:
            # The script operator tokens never produce output. An msub under
            # an msup with the same scriptpos fuses into one msubsup: the msub
            # is walked, its base and script take its place before the msup's
            # script, and it leaves its source's group.
            element = "msup" if role == "SUPERSCRIPTOP" else "msub"
            inner = self.doc.deref(args[0]) if element == "msup" else None
            if inner is not None and inner.kind is APP and len(inner.children) == 3:
                inner_op = self.doc.deref(inner.children[0])
                if (
                    inner_op.kind is TOK
                    and inner_op.attrs.role == "SUBSCRIPTOP"
                    and inner_op.attrs.scriptpos == op.attrs.scriptpos
                ):
                    element = "msubsup"
        built = self.target(TargetNode(element), app, container, True)
        children = built.children
        if scripted:
            if element == "msubsup":
                base = self.walk(args[0], container)
                group = self.groups[base.source.index]
                group.remove(base)
                if not group:
                    del self.groups[base.source.index]
                children += base.children
                args = args[1:]
            children += [self.walk(arg, container) for arg in args]
        elif role in INFIX_ROLES and len(args) >= 2:
            for i, arg in enumerate(args):
                if i:  # one operator token per argument gap
                    gap = token_to_pmml(op)
                    if not gap.text and role == "MULOP" and op.attrs.meaning == "times":
                        gap.text = INVISIBLE_TIMES
                    children.append(self.target(gap, op, container, False))
                children.append(self.walk(arg, container))
        else:
            # Prefix layout covers functions, differential operators, large
            # operators and applications whose operator is itself a compound.
            children.append(self.walk(op_node, container))
            if role == "FUNCTION":
                af = TargetNode("mo", text=APPLY_FUNCTION)
                children.append(self.target(af, app, container, False))
            children.extend(self.walk(arg, container) for arg in args)
        return built
