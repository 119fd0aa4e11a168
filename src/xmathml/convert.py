"""End-to-end conversion: parse, mark, generate, link, assemble."""

from __future__ import annotations

from .ascription import BranchWalk
from .cmml import ContentWalk, MeaningTable
from .linker import (
    AscriptionRegistry,
    IdScheme,
    assemble_parallel,
    assemble_single,
    assign_ids,
)
from .mml import TargetNode
from .model import TOK, XMathDocument
from .pmml import LARGEOP_ROLES, PresentationWalk
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


def _generate(walk: BranchWalk) -> tuple[TargetNode, dict[int, list[TargetNode]]]:
    """The walk's tree of the whole document, and its nodes grouped by
    source. The walk's ref memo is freed on return, before the next walk."""
    return walk.walk(walk.doc.root, None), walk.groups


def build_parallel(
    doc: XMathDocument,
    *,
    tex: str | None = None,
    display: str | None = None,
    table: MeaningTable | None = None,
) -> TargetNode:
    """Produce the fully cross-referenced parallel math element."""
    vis = mark_visibility(doc)
    presentation, pmml_groups = _generate(PresentationWalk(doc, vis))
    content, cmml_groups = _generate(ContentWalk(doc, vis, table))
    scheme = IdScheme.infer(doc)
    assign_ids(AscriptionRegistry(pmml_groups, cmml_groups), scheme)
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
    presentation, groups = _generate(PresentationWalk(doc, vis))
    scheme = IdScheme.infer(doc)
    assign_ids(AscriptionRegistry(presentation=groups), scheme)
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
    content, groups = _generate(ContentWalk(doc, vis, table))
    scheme = IdScheme.infer(doc)
    assign_ids(AscriptionRegistry(content=groups), scheme)
    return assemble_single(content, scheme=scheme)
