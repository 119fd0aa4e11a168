"""Seeded XMath formulas that look valid, with ids shaped to collide.

Each formula is drawn from a small grammar: tokens with roles and
meanings, applications, duals, wraps and refs. Every xml:id and idref
comes from ``IDS``, a list of shapes that meet the converter's own ids:
the default prefix ``m1`` and the wrapper ids after it, letter-ending
ids that read like suffixed copies (``x``/``xa``, ``m1.2``/``m1.2a``),
an id ending in ``.cmml`` and a LaTeXML-style dotted id. Ids repeat and
refs may name an id no node carries or a node they sit in, so some
formulas are rejected by the parser and some by the converter; the rest
convert.

Formulas are XMath text, so every node has a line and column.
"""

from __future__ import annotations

import random

IDS = (
    "a", "ab", "x", "xa", "t", "x1", "x1a", "m1", "m1.2", "m1.2a",
    "p1", "p1psi", "S1.E1.m1.1", "v2", "v2b", "q.cmml", "m1a",
)
#: (role, meaning, text) of every token.
_TOKENS = (
    ("ADDOP", "plus", "+"),
    ("MULOP", "times", ""),
    ("RELOP", "eq", "="),
    ("FUNCTION", None, "f"),
    ("ID", None, "x"),
    ("NUMBER", None, "2"),
    (None, None, "y"),
    (None, "custom-op", "⊕"),
)
_MAX_DEPTH = 4


class _Formula:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: list[str] = []  # xml:ids drawn so far, repeats kept

    def xml_id(self, chance: float) -> str:
        if self.rng.random() >= chance:
            return ""
        self.used.append(self.rng.choice(IDS))
        return f" xml:id='{self.used[-1]}'"

    def token(self) -> str:
        role, meaning, text = self.rng.choice(_TOKENS)
        attrs = self.xml_id(0.35)
        if role:
            attrs += f" role='{role}'"
        if meaning:
            attrs += f" meaning='{meaning}'"
        return f"<XMTok{attrs}>{text}</XMTok>" if text else f"<XMTok{attrs}/>"

    def node(self, depth: int) -> str:
        rng = self.rng
        roll = rng.random()
        if depth >= _MAX_DEPTH or roll < 0.4:
            return self.token()
        if roll < 0.55:
            return "<XMRef idref='{}'/>"  # named once the formula is drawn
        if roll < 0.8:
            return f"<XMApp{self.xml_id(0.15)}>{self.token()}{self.nodes(depth)}</XMApp>"
        if roll < 0.92:  # content first, then presentation
            pair = self.node(depth + 1) + self.node(depth + 1)
            return f"<XMDual{self.xml_id(0.15)}>{pair}</XMDual>"
        return f"<XMWrap{self.xml_id(0.15)}>{self.nodes(depth)}</XMWrap>"

    def nodes(self, depth: int) -> str:
        return "".join(self.node(depth + 1) for _ in range(self.rng.randint(1, 3)))


def formulas(count: int, seed: int) -> list[str]:
    """``count`` formulas, each an application at the top."""
    rng = random.Random(seed)
    made = []
    for _ in range(count):
        formula = _Formula(rng)
        text = f"<XMApp>{formula.token()}{formula.nodes(0)}</XMApp>"
        # Most refs name an id the formula carries; the rest may dangle.
        idrefs = [
            rng.choice(formula.used if formula.used and rng.random() < 0.85 else IDS)
            for _ in range(text.count("{}"))
        ]
        made.append(text.format(*idrefs))
    return made
