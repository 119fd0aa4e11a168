"""The converter's public operations, composed layer by layer with spans.

``convert`` and ``check`` are the two user-facing operations, called the
way the CLI calls them. ``traced_convert`` and ``traced_check`` make the
same calls one layer at a time and record a span around each; the
benchmark asserts that the traced composition serializes byte-for-byte
like ``build_parallel``, so the traced run measures the same program.
"""

from __future__ import annotations

from time import perf_counter_ns

from xmathml import (
    IdScheme,
    assemble_parallel,
    assign_ids,
    build_parallel,
    build_registry,
    check_links,
    derive_display,
    gen_cmml,
    gen_pmml,
    link_xrefs,
    mark_visibility,
    parse_xmath,
    read_xml_tree,
    serialize_mathml,
    target_from_raw,
)

CONVERT_SPANS = (
    "parser.parse_xmath",
    "visibility.mark_visibility",
    "pmml.gen_pmml",
    "cmml.gen_cmml",
    "linker.ids",
    "linker.link_xrefs",
    "linker.assemble",
    "serializer.serialize_mathml",
)
CHECK_SPANS = ("parser.read_xml_tree", "mml.target_from_raw", "linker.check_links")


def convert(formula, table, opts) -> str:
    doc = parse_xmath(formula.text)
    math = build_parallel(doc, tex=formula.tex, display=formula.display, table=table)
    return serialize_mathml(math, opts)


def check(text: str):
    return check_links(target_from_raw(read_xml_tree(text)))


class Tracer:
    """Spans kept in memory as [trace, name, parent, start_ns, end_ns].

    ``parent`` is the index of the enclosing span, -1 for an operation.
    Spans of one formula's operation share its trace id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, trace: int, name: str) -> int:
        self.spans.append([trace, name, -1, perf_counter_ns(), 0])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter_ns()

    def call(self, trace: int, parent: int, name: str, fn, *args, **kwargs):
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        self.spans.append([trace, name, parent, start, perf_counter_ns()])
        return result


def _ids(doc, presentation, content):
    scheme = IdScheme.infer(doc)
    registry = build_registry(presentation, content)
    assign_ids(registry, scheme)
    return registry, scheme


def _assemble(doc, vis, presentation, content, formula, scheme):
    display = formula.display
    if display is None:
        display = derive_display(doc, vis)
    return assemble_parallel(
        presentation, content, tex=formula.tex, display=display, scheme=scheme
    )


def traced_convert(tracer: Tracer, trace: int, formula, table, opts):
    """``convert``, one span per layer. Returns the text and the pieces."""
    op = tracer.open(trace, "convert")
    call = tracer.call
    doc = call(trace, op, "parser.parse_xmath", parse_xmath, formula.text)
    vis = call(trace, op, "visibility.mark_visibility", mark_visibility, doc)
    presentation = call(trace, op, "pmml.gen_pmml", gen_pmml, doc, vis)
    content = call(trace, op, "cmml.gen_cmml", gen_cmml, doc, vis, table)
    registry, scheme = call(trace, op, "linker.ids", _ids, doc, presentation, content)
    call(trace, op, "linker.link_xrefs", link_xrefs, registry)
    math = call(
        trace, op, "linker.assemble", _assemble,
        doc, vis, presentation, content, formula, scheme,
    )
    text = call(trace, op, "serializer.serialize_mathml", serialize_mathml, math, opts)
    tracer.close(op)
    return text, doc, vis, registry, math


def traced_check(tracer: Tracer, trace: int, text: str):
    op = tracer.open(trace, "check")
    raw = tracer.call(trace, op, "parser.read_xml_tree", read_xml_tree, text)
    math = tracer.call(trace, op, "mml.target_from_raw", target_from_raw, raw)
    report = tracer.call(trace, op, "linker.check_links", check_links, math)
    tracer.close(op)
    return report
