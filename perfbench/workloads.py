"""Seeded XMath input generators for the three benchmark workloads.

Every input is produced here as XMath text from ``random.Random(seed)``;
the converter sees nothing but that text. The generators are written for
the benchmark and share no code with the test suite's tree generator.

Sizes and sharing depths are stratified: each seed gets the same multiset
of formula sizes (or chain depths), shuffled, and only the shapes change.
That keeps medians and tails comparable across seeds, so a run-to-run
difference reflects the program, not a luckier draw of input sizes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: The golden fixtures, converted with the arguments their expected
#: outputs were written for. The quantum expectation spells uplimit as
#: lowupper, which the comparison renames.
GOLDENS = (
    ("sum_function", "a+F(a,b)", "block", {}),
    ("quantum_defint", "...", None, {"lowupper": "uplimit"}),
)

#: Workload sizes are chosen so that, in a 30-second run, every formula
#: is timed often enough (corpus ~55 passes, large and shared 13-23) for
#: its best time to reach the floor even in slow phases of a shared host.
CORPUS_FORMULAS = 600
CORPUS_SIZES = range(6, 23)  # mean 14 XMath nodes; the median size is 14
CORPUS_REJECTS_PER_KIND = 4
CHAIN_LENGTH = 300

LARGE_FORMULAS = 80
LARGE_MIN_NODES = 100
LARGE_MAX_NODES = 400
LARGE_MAX_DUAL = 24

#: Chain depth d -> number of formulas (100 in all). The median formula
#: sits inside the d=2 band, and the top ten formulas all have the deepest
#: chain, so the median and the tail never straddle a band boundary.
SHARED_DEPTHS = ((0, 18), (1, 18), (2, 18), (3, 14), (4, 10), (5, 9), (6, 13))

WHY = {
    "corpus": (
        "600 ~14-node formulas, both goldens and must-reject inputs: fixed "
        "per-formula costs (parser set-up, id scheme, serialize, check) dominate"
    ),
    "large": (
        "display-sized formulas of 100-400 nodes, deep and wide: per-node parse "
        "and walk cost dominates and per-formula overhead fades"
    ),
    "shared": (
        "bra-ket duals with letter-ending ids and ref chains sharing subtrees "
        "up to ~31x: ref chasing, ascription, suffixed ids, xrefs and check"
    ),
}


@dataclass
class Formula:
    """One input. ``expect`` is "ok" for inputs that must convert and
    check clean; otherwise the ParseErrorKind value the parser must raise,
    or "deep-chain" (convert and check clean, or a ConversionError)."""

    name: str
    text: str
    tex: str | None = None
    display: str | None = None
    expect: str = "ok"
    golden: str | None = None  # the expected MathML, for the two fixtures
    renames: dict[str, str] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    numeric_entities: bool
    formulas: list[Formula]
    must_reject: list[Formula]


# -- a minimal XML element model, serialized LaTeXML-style ------------------


class El:
    __slots__ = ("tag", "attrs", "children", "text")

    def __init__(self, tag, attrs=None, children=None, text=None):
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}
        self.children = children if children is not None else []
        self.text = text


def tok(text=None, **attrs) -> El:
    return El("XMTok", {k: v for k, v in attrs.items() if v is not None}, text=text)


def _esc(value: str) -> str:
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def to_xml(root: El) -> str:
    parts: list[str] = []

    def emit(el: El, depth: int) -> None:
        pad = "  " * depth
        attrs = "".join(
            f' {k}="{_esc(v).replace(chr(34), "&quot;")}"' for k, v in el.attrs.items()
        )
        if el.children:
            parts.append(f"{pad}<{el.tag}{attrs}>\n")
            for child in el.children:
                emit(child, depth + 1)
            parts.append(f"{pad}</{el.tag}>\n")
        elif el.text:
            parts.append(f"{pad}<{el.tag}{attrs}>{_esc(el.text)}</{el.tag}>\n")
        else:
            parts.append(f"{pad}<{el.tag}{attrs}/>\n")

    emit(root, 0)
    return "".join(parts)


# -- random formula trees of an exact node count ------------------------------

LETTERS = list("abcdxyznkFfgGH") + ["α", "β", "ψ", "Ψ", "Φ", "Γ", "Δ"]
NUMBERS = ["0", "1", "2", "7", "42", "3.14"]


def _leaf(rng: random.Random) -> El:
    roll = rng.random()
    if roll < 0.72:
        text = rng.choice(LETTERS)
        font = rng.choice([None, None, None, "italic", "normal", "caligraphic"])
        return tok(text, role="ID", font=font)
    if roll < 0.92:
        return tok(rng.choice(NUMBERS), role="NUMBER", meaning=None)
    return tok(rng.choice(["∞", "…", "π"]), role="UNKNOWN")


def _operator(rng: random.Random, args: int) -> El:
    if args == 2 and rng.random() < 0.18:
        role = rng.choice(["SUPERSCRIPTOP", "SUBSCRIPTOP"])
        return tok(None, role=role, scriptpos=rng.choice(["post1", "post2"]))
    if args == 4 and rng.random() < 0.3:
        style = "display" if rng.random() < 0.5 else None
        return tok("∫", role="INTOP", meaning="hack-definite-integral", mathstyle=style)
    choices = [
        lambda: tok("+", role="ADDOP", meaning="plus"),
        lambda: tok("−", role="ADDOP", meaning="minus"),
        lambda: tok("", role="MULOP", meaning="times"),
        lambda: tok("×", role="MULOP", meaning="times"),
        lambda: tok("=", role="RELOP", meaning="eq"),
        lambda: tok("<", role="RELOP", meaning="lt"),
        lambda: tok(rng.choice(["f", "g", "F"]), role="FUNCTION", font="italic"),
        lambda: tok("sin", role="FUNCTION", meaning="sin"),
        lambda: tok("d", role="DIFFOP", meaning="differential-d", font="italic"),
        lambda: tok("∑", role="SUMOP", meaning="sum"),
        lambda: tok("⊕", role="BINOP", meaning="direct-sum"),
    ]
    return rng.choice(choices)()


def _split(rng: random.Random, total: int, parts: int, skew: float) -> list[int]:
    """A random composition of ``total`` into ``parts`` positive sizes.

    With probability ``skew`` one part takes nearly everything, which is
    what makes trees deep instead of bushy.
    """
    if parts == 1:
        return [total]
    if rng.random() < skew:
        sizes = [1] * parts
        sizes[rng.randrange(parts)] += total - parts
        return sizes
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


class _TreeGen:
    """Exact-size random XMath trees in the convertible subset.

    Wraps only appear where the content walk cannot reach them (inside a
    dual's presentation branch); applications always have an operator
    token; a share of argument leaves become refs, resolved later.
    Duals only wrap subtrees of at most ``max_dual`` nodes.
    """

    def __init__(self, rng, *, max_depth, max_args, skew, dual_p, wrap_p, ref_p,
                 ref_duals=True, max_dual=None):
        self.rng = rng
        self.max_depth = max_depth
        self.max_args = max_args
        self.skew = skew
        self.dual_p = dual_p
        self.wrap_p = wrap_p
        self.ref_p = ref_p
        self.ref_duals = ref_duals
        self.max_dual = max_dual
        self.slots: list[El] = []

    def arg_leaf(self) -> El:
        if self.rng.random() < self.ref_p:
            slot = El("XMRef")
            self.slots.append(slot)
            return slot
        return _leaf(self.rng)

    def tree(self, n: int, depth: int = 0, wrap_ok: bool = False) -> El:
        rng = self.rng
        if n == 1:
            return self.arg_leaf()
        if n == 2:
            if wrap_ok and rng.random() < 0.3:
                return El("XMWrap", children=[self.arg_leaf()])
            return El("XMApp", children=[_operator(rng, 0)])
        if depth >= self.max_depth:
            # Flat row: an operator applied to n - 1 leaves.
            return El(
                "XMApp",
                children=[_operator(rng, n - 1)] + [self.arg_leaf() for _ in range(n - 1)],
            )
        roll = rng.random()
        if roll < self.dual_p and (self.max_dual is None or n <= self.max_dual):
            k = rng.randint(1, n - 2)
            return El(
                "XMDual",
                children=[
                    self.tree(k, depth + 1, False),
                    self.tree(n - 1 - k, depth + 1, True),
                ],
            )
        if wrap_ok and self.dual_p <= roll < self.dual_p + self.wrap_p:
            parts = rng.randint(1, min(self.max_args, n - 1))
            sizes = _split(rng, n - 1, parts, self.skew)
            return El(
                "XMWrap", children=[self.tree(s, depth + 1, wrap_ok) for s in sizes]
            )
        parts = rng.randint(1, min(self.max_args, n - 2))
        sizes = _split(rng, n - 2, parts, self.skew)
        children = [_operator(rng, parts)]
        children.extend(self.tree(s, depth + 1, wrap_ok) for s in sizes)
        return El("XMApp", children=children)

    def resolve_refs(self, root: El, prefix: str) -> None:
        """Point every ref slot at a token, or at a dual that ends before it
        (when ``ref_duals``; a dual target multiplies output size).

        Targets before the slot that do not enclose it can never lead back
        to the slot, so ref chains cannot cycle. Targets get LaTeXML-style
        ``prefix.k`` ids, numbered in document order.
        """
        order: list[El] = []
        ends: dict[int, int] = {}

        def walk(el: El) -> None:
            start = len(order)
            order.append(el)
            for child in el.children:
                walk(child)
            ends[start] = len(order) - 1

        walk(root)
        position = {id(el): i for i, el in enumerate(order)}
        tokens = [el for el in order if el.tag == "XMTok"]
        duals = [el for el in order if el.tag == "XMDual" and self.ref_duals]
        targets: set[int] = set()
        for slot in self.slots:
            here = position[id(slot)]
            candidates = tokens + [
                d for d in duals if ends[position[id(d)]] < here
            ]
            target = self.rng.choice(candidates)
            targets.add(id(target))
            slot.attrs = {"idref": target}
        counter = 0
        for el in order:
            if id(el) in targets:
                counter += 1
                el.attrs["xml:id"] = f"{prefix}.{counter}"
        for slot in self.slots:
            slot.attrs = {"idref": slot.attrs["idref"].attrs["xml:id"]}
        self.slots = []


def _random_formula(gen: _TreeGen, n: int, prefix: str) -> str:
    root = gen.tree(n)
    gen.resolve_refs(root, prefix)
    return to_xml(root)


def _stratified(rng: random.Random, values: list[int], count: int) -> list[int]:
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


# -- must-reject inputs --------------------------------------------------------


def _reject_inputs(rng: random.Random, per_kind: int) -> list[Formula]:
    gen = _TreeGen(rng, max_depth=5, max_args=3, skew=0.2, dual_p=0.2, wrap_p=0.1, ref_p=0.0)
    out: list[Formula] = []
    for i in range(per_kind):
        body = gen.tree(rng.randint(4, 9))
        plus = tok("+", role="ADDOP", meaning="plus")

        dangling = El("XMApp", children=[plus, body, El("XMRef", {"idref": f"r{i}.404"})])
        out.append(Formula(f"reject-dangling-{i}", to_xml(dangling), expect="dangling-idref"))

        dup = f"r{i}.1"
        twice = El(
            "XMApp",
            children=[plus, tok("a", role="ID", **{"xml:id": dup}), body,
                      tok("b", role="ID", **{"xml:id": dup})],
        )
        out.append(Formula(f"reject-duplicate-{i}", to_xml(twice), expect="duplicate-id"))

        arity = rng.choice([1, 3])
        dual = El("XMDual", children=[gen.tree(2) for _ in range(arity)])
        bad_dual = El("XMApp", children=[plus, body, dual])
        out.append(Formula(f"reject-dual-arity-{i}", to_xml(bad_dual), expect="dual-arity"))

        text = to_xml(El("XMApp", children=[plus, body, tok("c", role="ID")]))
        cut = rng.randint(text.index(">") + 1, text.rindex("</XMApp>"))
        out.append(Formula(f"reject-malformed-{i}", text[:cut], expect="malformed-xml"))

        out.append(Formula(f"deep-chain-{i}", _deep_chain(rng, i), expect="deep-chain"))
    return out


def _deep_chain(rng: random.Random, index: int) -> str:
    """A linear chain of single-ref duals, CHAIN_LENGTH refs deep.

    Dual j refers to dual j-1 once from each branch. The duals are stored
    where neither walk reaches them directly (the content branch of a dual
    inside a presentation branch), so output grows linearly with the
    chain; only the depth of ref chasing is extreme.
    """
    ids = [f"c{index}.{j}" for j in range(CHAIN_LENGTH + 1)]
    store = [tok(rng.choice(LETTERS), role="ID", **{"xml:id": ids[0]})]
    for j in range(1, CHAIN_LENGTH + 1):
        f = rng.choice(["f", "g", "h"])
        store.append(
            El(
                "XMDual",
                {"xml:id": ids[j]},
                [
                    El("XMApp", children=[tok(None, meaning=f"apply-{f}"),
                                          El("XMRef", {"idref": ids[j - 1]})]),
                    El("XMApp", children=[tok(f, role="FUNCTION"),
                                          El("XMRef", {"idref": ids[j - 1]})]),
                ],
            )
        )
    top = El("XMRef", {"idref": ids[-1]})
    hidden = El("XMDual", children=[El("XMWrap", children=store), El("XMRef", {"idref": ids[-1]})])
    root = El("XMDual", children=[top, hidden])
    return to_xml(root)


# -- workloads -----------------------------------------------------------------


def _goldens() -> list[Formula]:
    return [
        Formula(
            name,
            (GOLDEN_DIR / f"{name}.xmath.xml").read_text("utf-8"),
            tex=tex,
            display=display,
            golden=(GOLDEN_DIR / f"{name}.mathml.xml").read_text("utf-8"),
            renames=renames,
        )
        for name, tex, display, renames in GOLDENS
    ]


def corpus(seed: int) -> Workload:
    rng = random.Random(seed)
    gen = _TreeGen(rng, max_depth=6, max_args=4, skew=0.15, dual_p=0.2, wrap_p=0.1, ref_p=0.15)
    sizes = _stratified(rng, list(CORPUS_SIZES), CORPUS_FORMULAS)
    formulas = _goldens() + [
        Formula(f"corpus-{i}", _random_formula(gen, n, f"m{i}"))
        for i, n in enumerate(sizes)
    ]
    return Workload("corpus", WHY["corpus"], False, formulas,
                    _reject_inputs(rng, CORPUS_REJECTS_PER_KIND))


def large(seed: int) -> Workload:
    rng = random.Random(seed)
    # Refs point at tokens only and duals stay local, as in real formulas:
    # output size then follows input size, and amplification is left to the
    # shared workload. A dual near the root of a 300-node tree would halve
    # that formula's output, and the seed's number of such formulas would
    # move the median by ~15%.
    gen = _TreeGen(rng, max_depth=30, max_args=14, skew=0.35, dual_p=0.05, wrap_p=0.1,
                   ref_p=0.05, ref_duals=False, max_dual=LARGE_MAX_DUAL)
    span = LARGE_MAX_NODES - LARGE_MIN_NODES
    sizes = [LARGE_MIN_NODES + span * i // (LARGE_FORMULAS - 1) for i in range(LARGE_FORMULAS)]
    rng.shuffle(sizes)
    formulas = [
        Formula(f"large-{i}", _random_formula(gen, n, f"L{i}"))
        for i, n in enumerate(sizes)
    ]
    return Workload("large", WHY["large"], False, formulas, [])


_KETS = ["Ψ", "Φ", "χ", "φ", "ψ", "ξ"]
_OPERATORS = ["H", "A", "V", "L"]


def _bra_ket(rng: random.Random, ids: list[str], tag: str, operator: bool) -> El:
    """A ⟨Ψ|ℋ|Φ⟩-style dual (⟨Ψ|Φ⟩ without ``operator``) whose content
    refers to presentation tokens.

    Token ids come in letter-ending families (p3 beside p3psi, p3phi).
    """
    bra, ket = rng.sample(_KETS, 2)
    wrap = [tok("⟨", role="OPEN")]
    if operator:
        op = rng.choice(_OPERATORS)
        names = [f"{tag}psi", tag, f"{tag}phi"]
        wrap += [
            tok(bra, role="ID", **{"xml:id": names[0]}),
            tok("|", role="CLOSE", stretchy="true"),
            tok(op, role="ID", font="caligraphic", **{"xml:id": names[1]}),
            tok("|", role="OPEN", stretchy="true"),
            tok(ket, role="ID", **{"xml:id": names[2]}),
        ]
        meaning = "quantum-operator-product"
    else:
        names = [f"{tag}psi", f"{tag}phi"]
        wrap += [
            tok(bra, role="ID", **{"xml:id": names[0]}),
            tok("|", role="PUNCT", stretchy="true"),
            tok(ket, role="ID", **{"xml:id": names[1]}),
        ]
        meaning = "inner-product"
    wrap.append(tok("⟩", role="CLOSE"))
    refs = [El("XMRef", {"idref": name}) for name in names]
    return El(
        "XMDual",
        {"xml:id": ids.pop(0)},
        [El("XMApp", children=[tok(None, meaning=meaning), *refs]), El("XMWrap", children=wrap)],
    )


def _shared_formula(rng: random.Random, index: int, depth: int, brackets: int, extras: int) -> str:
    ids = [f"m{index}.{k}" for k in range(1, 64)]
    # The first bracket heads the chain. Odd brackets are ⟨Ψ|ℋ|Φ⟩, even
    # ones ⟨Ψ|Φ⟩, so a formula's cost follows its stratified shape.
    duals = [_bra_ket(rng, ids, f"p{j}", j % 2 == 1) for j in range(1, brackets + 1)]
    terms: list[El] = list(duals)
    previous = duals[0].attrs["xml:id"]
    # Each chain dual uses the previous one twice in both branches, so the
    # first bracket is reached 2^(depth+1) - 1 times.
    for _ in range(depth):
        refs = [El("XMRef", {"idref": previous}) for _ in range(4)]
        dual = El(
            "XMDual",
            {"xml:id": ids.pop(0)},
            [
                El("XMApp", children=[tok(None, meaning="compose"), *refs[:2]]),
                El("XMApp", children=[tok("∘", role="MULOP", meaning="compose"), *refs[2:]]),
            ],
        )
        terms.append(dual)
        previous = dual.attrs["xml:id"]
    extra = _TreeGen(rng, max_depth=3, max_args=3, skew=0.0, dual_p=0.0, wrap_p=0.0, ref_p=0.0)
    for _ in range(extras):
        terms.insert(rng.randint(0, len(terms)), extra.tree(rng.randint(2, 5)))
    root = El("XMApp", children=[tok("+", role="ADDOP", meaning="plus"), *terms])
    return to_xml(root)


def shared(seed: int) -> Workload:
    rng = random.Random(seed)
    # Within each depth band, 1-3 brackets and 0-2 extra terms come in a
    # fixed mix; only their order and contents depend on the seed.
    shapes = [
        (depth, 1 + k % 3, k // 3 % 3)
        for depth, count in SHARED_DEPTHS
        for k in range(count)
    ]
    rng.shuffle(shapes)
    formulas = [
        Formula(f"shared-{i}", _shared_formula(rng, i, *shape))
        for i, shape in enumerate(shapes)
    ]
    return Workload("shared", WHY["shared"], True, formulas, [])


WORKLOADS = {"corpus": corpus, "large": large, "shared": shared}
