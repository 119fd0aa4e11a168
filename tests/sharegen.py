"""Seeded XMath documents whose refs share whole subtrees.

treegen's refs target only tokens and earlier duals. Here refs also
target applications, wraps, msub-under-msup scripts (so script fusion
runs through a ref), duals and other refs, and the documents combine:

* one target reached from both branches of a dual, and from two duals;
* chains of duals, each using the one before twice in both branches;
* hack-definite-integral duals whose four slots are refs.

Documents are XMath text, so every node has a line and column. Every
document parses. A ref only points at a node whose text was complete
before the ref was made, so the ref graph has no cycle unless one is
planted on purpose. A few documents carry such a planted fault: a ref
from inside a dual back to it, a wrap reached from the content side, or
an integral with a slot missing. Conversion rejects those.
"""

from __future__ import annotations

import random

_LETTERS = ["a", "b", "x", "y", "k", "ψ", "Φ", "H"]
_NUMBERS = ["2", "7", "42"]
#: (role, meaning, text) of the operators applications are built over.
_OPERATORS = [
    ("ADDOP", "plus", "+"),
    ("MULOP", "times", ""),
    ("FUNCTION", None, "f"),
    ("RELOP", "eq", "="),
    (None, "custom-op", "⊕"),
]
#: Refs only go to targets whose estimated one-branch output is this small.
_REF_LIMIT = 120
#: Chance that a content-side ref may pick a target with a wrap in it.
_FAULT = 0.02


def _tok(role: str | None, meaning: str | None, text: str, attr: str = "") -> str:
    if role:
        attr += f" role='{role}'"
    if meaning:
        attr += f" meaning='{meaning}'"
    return f"<XMTok{attr}>{text}</XMTok>" if text else f"<XMTok{attr}/>"


class _Doc:
    """Makes one document. Each subtree method returns (text, safe,
    size): ``safe`` when the content walk meets no wrap in it, ``size``
    an estimate of its output nodes in one branch."""

    def __init__(self, rng: random.Random, number: int):
        self.rng = rng
        self.prefix = f"m{number}"
        self.count = 0
        # (xml:id, kind, safe, size) of every finished target, in order.
        self.pool: list[tuple[str, str, bool, int]] = []

    def new_id(self) -> str:
        self.count += 1
        return f"{self.prefix}.{self.count}"

    def pick(self, side: str, kinds: tuple[str, ...] = (), limit: int = _REF_LIMIT):
        fault = side != "p" and self.rng.random() < _FAULT
        candidates = [
            item
            for item in self.pool
            if item[3] <= limit
            and (not kinds or item[1] in kinds)
            and (side == "p" or item[2] or fault)
        ]
        return self.rng.choice(candidates) if candidates else None

    def token(self, attr: str = "") -> tuple[str, bool, int]:
        roll = self.rng.random()
        if roll < 0.6:
            font = " font='caligraphic'" if self.rng.random() < 0.1 else ""
            text = _tok("ID", None, self.rng.choice(_LETTERS), attr + font)
        elif roll < 0.85:
            text = _tok("ID", None, self.rng.choice(_NUMBERS), attr)
        else:
            text = _tok(*self.rng.choice(_OPERATORS[:2]), attr)
        return text, True, 1

    def ref(self, side: str, attr: str = "") -> tuple[str, bool, int]:
        item = self.pick(side)
        if item is None:
            return self.token(attr)
        return f"<XMRef{attr} idref='{item[0]}'/>", item[2], item[3]

    def node(self, side: str, depth: int, keep: float = 0.4) -> tuple[str, bool, int]:
        """One subtree; with chance ``keep`` it gets an id and joins the pool."""
        ident = self.new_id() if self.rng.random() < keep else None
        attr = f" xml:id='{ident}'" if ident else ""
        roll = self.rng.random()
        if depth >= 3 or roll < 0.3:
            if self.pool and self.rng.random() < 0.5:
                kind, built = "ref", self.ref(side, attr)
            else:
                kind, built = "tok", self.token(attr)
        elif roll < 0.5:
            kind, built = "app", self.app(side, depth, attr)
        elif roll < 0.62:
            kind, built = "script", self.script(side, depth, attr)
        elif roll < 0.72 and side == "p":
            kind, built = "wrap", self.wrap(depth, attr)
        elif roll < 0.86:
            kind, built = "dual", self.dual(depth, attr, ident)
        else:
            kind, built = "ref", self.ref(side, attr)
        if ident:
            self.pool.append((ident, kind, built[1], built[2]))
        return built

    def app(self, side: str, depth: int, attr: str) -> tuple[str, bool, int]:
        role, meaning, text = self.rng.choice(_OPERATORS)
        args = [self.node(side, depth + 1) for _ in range(self.rng.randint(1, 3))]
        body = "".join(arg[0] for arg in args)
        size = 1 + len(args) + sum(arg[2] for arg in args)
        return (
            f"<XMApp{attr}>{_tok(role, meaning, text)}{body}</XMApp>",
            all(arg[1] for arg in args),
            size,
        )

    def script(self, side: str, depth: int, attr: str) -> tuple[str, bool, int]:
        """An msup over an msub; the msub is often reached through a ref."""
        pos = self.rng.choice(["post1", "post1", "post2"])
        inner = self.pick(side, ("sub",)) if self.rng.random() < 0.6 else None
        if inner is not None:
            base = f"<XMRef idref='{inner[0]}'/>", inner[2], inner[3]
        else:
            ident = self.new_id()
            lower = self.node(side, depth + 1)
            sub = self.node(side, depth + 1)
            base = (
                f"<XMApp xml:id='{ident}'><XMTok role='SUBSCRIPTOP' scriptpos='{pos}'/>"
                f"{lower[0]}{sub[0]}</XMApp>",
                lower[1] and sub[1],
                1 + lower[2] + sub[2],
            )
            self.pool.append((ident, "sub", base[1], base[2]))
        upper = self.node(side, depth + 1)
        return (
            f"<XMApp{attr}><XMTok role='SUPERSCRIPTOP' scriptpos='{pos}'/>"
            f"{base[0]}{upper[0]}</XMApp>",
            base[1] and upper[1],
            1 + base[2] + upper[2],
        )

    def wrap(self, depth: int, attr: str) -> tuple[str, bool, int]:
        parts = [self.node("p", depth + 1) for _ in range(self.rng.randint(1, 3))]
        body = "".join(part[0] for part in parts)
        return (
            f"<XMWrap{attr}><XMTok role='OPEN'>(</XMTok>{body}"
            "<XMTok role='CLOSE'>)</XMTok></XMWrap>",
            False,
            3 + sum(part[2] for part in parts),
        )

    def named(self, side: str, depth: int) -> tuple[str, tuple]:
        """A subtree that joins the pool, with its pool entry."""
        text = self.node(side, depth, keep=1.0)[0]
        return text, self.pool[-1]

    def dual(self, depth: int, attr: str, ident: str | None) -> tuple[str, bool, int]:
        """LaTeXML's shape: the presentation holds the parts, each with an
        id, and the content applies a meaning to refs to them."""
        parts = [self.named("p", depth + 1) for _ in range(self.rng.randint(1, 3))]
        presentation = "".join(part[0] for part in parts)
        if self.rng.random() < 0.3:
            presentation = f"<XMWrap>{presentation}</XMWrap>"
        else:
            presentation = f"<XMApp>{_tok('MULOP', 'times', '·')}{presentation}</XMApp>"
        refs = [
            f"<XMRef idref='{item[0]}'/>"
            for _, item in parts
            if item[2] or self.rng.random() < _FAULT
        ]
        self.rng.shuffle(refs)
        if refs and self.rng.random() < 0.3:
            refs.append(refs[0])
        if ident and self.rng.random() < _FAULT:
            refs.append(f"<XMRef idref='{ident}'/>")  # a planted cycle
        content = f"<XMApp>{_tok(None, 'grouping', '')}{''.join(refs)}</XMApp>"
        size = 2 + len(parts) + sum(item[3] for _, item in parts)
        return f"<XMDual{attr}>{content}{presentation}</XMDual>", True, size

    def share(self, twin: bool) -> str:
        """Duals whose two branches both use one target; ``twin`` repeats
        the dual with the same target."""
        item = self.pick("c")
        if item is None:
            return self.node("b", 0)[0]
        target = f"<XMRef idref='{item[0]}'/>"
        duals = []
        for _ in range(2 if twin else 1):
            other = self.ref("c")[0]
            duals.append(
                f"<XMDual><XMApp>{_tok(None, 'inner-product', '')}{target}{other}</XMApp>"
                f"<XMApp>{_tok('MULOP', 'times', '·')}{target}{other}</XMApp></XMDual>"
            )
        return "".join(duals)

    def chain(self) -> str:
        """Duals that each use the one before twice in both branches."""
        levels = self.rng.randint(2, 4)
        item = self.pick("c", limit=_REF_LIMIT >> levels)
        terms = []
        if item is None:
            ident = self.new_id()
            text, safe, size = self.token(f" xml:id='{ident}'")
            terms.append(text)
            item = ident, "tok", safe, size
            self.pool.append(item)
        previous, size = item[0], item[3]
        for _ in range(levels):
            ident = self.new_id()
            ref = f"<XMRef idref='{previous}'/>"
            terms.append(
                f"<XMDual xml:id='{ident}'><XMApp>{_tok(None, 'compose', '')}{ref}{ref}</XMApp>"
                f"<XMApp>{_tok('MULOP', 'compose', '∘')}{ref}{ref}</XMApp></XMDual>"
            )
            size = 2 * size + 3
            self.pool.append((ident, "dual", True, size))
            previous = ident
        return "".join(terms)

    def integral(self) -> str:
        """A definite integral whose content slots are refs to the
        presentation's bounds, integrand and variable."""
        # The parts sit in the presentation but are reached from content.
        parts = [self.named("c", depth) for depth in (2, 2, 1, 3)]
        low, high, body, var = (text for text, _ in parts)
        presentation = (
            "<XMWrap><XMApp><XMTok role='SUPERSCRIPTOP' scriptpos='post1'/>"
            "<XMApp><XMTok role='SUBSCRIPTOP' scriptpos='post1'/>"
            f"<XMTok role='INTOP' meaning='integral'>∫</XMTok>{low}</XMApp>{high}</XMApp>"
            f"{body}<XMTok role='DIFFOP' meaning='differential-d'>d</XMTok>{var}</XMWrap>"
        )
        slots = [f"<XMRef idref='{item[0]}'/>" for _, item in parts]
        if self.rng.random() < _FAULT:
            slots.pop()  # a planted arity fault
        head = "<XMTok meaning='hack-definite-integral'/>"
        return f"<XMDual><XMApp>{head}{''.join(slots)}</XMApp>{presentation}</XMDual>"

    def document(self) -> str:
        terms = [self.node("b", 0, keep=0.6)[0] for _ in range(self.rng.randint(1, 2))]
        for _ in range(self.rng.randint(2, 4)):
            roll = self.rng.random()
            if roll < 0.25:
                terms.append(self.share(twin=self.rng.random() < 0.5))
            elif roll < 0.65:
                terms.append(self.chain())
            elif roll < 0.8:
                terms.append(self.integral())
            else:
                terms.append(self.node("b", 0)[0])
        plus = _tok("ADDOP", "plus", "+")
        return f"<XMApp>{plus}{''.join(terms)}</XMApp>"


def shared_documents(count: int, seed: int = 20261018) -> list[str]:
    """``count`` XMath texts, the same for the same seed."""
    rng = random.Random(seed)
    return [_Doc(rng, number).document() for number in range(1, count + 1)]
