"""End-to-end conversion: parse, mark, generate, link, assemble."""

from __future__ import annotations

from .cmml import MeaningTable, gen_cmml
from .linker import (
    IdScheme,
    assemble_parallel,
    assemble_single,
    assign_ids,
    build_registry,
)
from .mml import TargetNode
from .model import TOK, XMathDocument
from .pmml import LARGEOP_ROLES, gen_pmml
from .visibility import VisibilityMap, mark_visibility


def derive_display(doc: XMathDocument, vis: VisibilityMap) -> str | None:
    """Promote a display-styled large operator to display="block".

    The mathstyle attribute lives on tokens; the display attribute
    belongs on the outer math element, so it is derived here and dropped
    from token output.
    """
    for node in doc.nodes:
        if (
            node.kind is TOK
            and node.attrs.mathstyle == "display"
            and node.attrs.role in LARGEOP_ROLES
            and vis.presentation_visible(node)
        ):
            return "block"
    return None


def build_parallel(
    doc: XMathDocument,
    *,
    tex: str | None = None,
    display: str | None = None,
    table: MeaningTable | None = None,
) -> TargetNode:
    """Produce the fully cross-referenced parallel math element."""
    vis = mark_visibility(doc)
    presentation = gen_pmml(doc, vis)
    content = gen_cmml(doc, vis, table)
    scheme = IdScheme.infer(doc)
    registry = build_registry(presentation, content)
    assign_ids(registry, scheme)
    if display is None:
        display = derive_display(doc, vis)
    return assemble_parallel(
        presentation, content, tex=tex, display=display, scheme=scheme
    )


def build_presentation(
    doc: XMathDocument,
    *,
    display: str | None = None,
) -> TargetNode:
    """Presentation-only math element: ids assigned, no xrefs."""
    vis = mark_visibility(doc)
    presentation = gen_pmml(doc, vis)
    scheme = IdScheme.infer(doc)
    registry = build_registry(pmml=presentation)
    assign_ids(registry, scheme)
    if display is None:
        display = derive_display(doc, vis)
    return assemble_single(presentation, display=display, scheme=scheme)


def build_content(
    doc: XMathDocument,
    *,
    table: MeaningTable | None = None,
) -> TargetNode:
    """Content-only math element: ids assigned, no xrefs."""
    vis = mark_visibility(doc)
    content = gen_cmml(doc, vis, table)
    scheme = IdScheme.infer(doc)
    registry = build_registry(cmml=content)
    assign_ids(registry, scheme)
    return assemble_single(content, scheme=scheme)
