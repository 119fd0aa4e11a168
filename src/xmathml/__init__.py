"""Cross-referenced parallel MathML generation from LaTeXML XMath markup.

The pipeline: parse XMath, mark branch visibility, generate presentation
and content trees with ascribed sources, allocate ids, wire xrefs, and
assemble everything inside one semantics-bearing math element.
"""

from .ascription import ascribe
from .cmml import (
    ExpansionRule,
    MeaningTable,
    gen_cmml,
    load_expansion_table,
    token_to_cmml,
)
from .convert import (
    build_content,
    build_parallel,
    build_presentation,
    derive_display,
)
from .errors import (
    ArityMismatchError,
    ContentWrapError,
    ConversionError,
    IdCollisionError,
    MalformedApplyError,
    ParseError,
    ParseErrorKind,
    ReferenceCycleError,
)
from .linker import (
    AscriptionRegistry,
    IdScheme,
    LinkReport,
    LinkViolation,
    assemble_parallel,
    assemble_single,
    assign_ids,
    build_registry,
    check_links,
    link_xrefs,
)
from .mml import TargetNode, target_from_raw
from .model import (
    Branch,
    NodeKind,
    SemanticAttrs,
    XMathDocument,
    XMathNode,
)
from .parser import parse_xmath, read_xml_tree
from .pmml import gen_pmml, token_to_pmml
from .serializer import EntityMode, SerializeOptions, serialize_mathml
from .visibility import VisibilityMap, mark_visibility

__version__ = "0.1.0"

__all__ = [
    "AscriptionRegistry",
    "ArityMismatchError",
    "Branch",
    "ContentWrapError",
    "ConversionError",
    "EntityMode",
    "ExpansionRule",
    "IdCollisionError",
    "IdScheme",
    "LinkReport",
    "LinkViolation",
    "MalformedApplyError",
    "MeaningTable",
    "NodeKind",
    "ParseError",
    "ParseErrorKind",
    "ReferenceCycleError",
    "SemanticAttrs",
    "SerializeOptions",
    "TargetNode",
    "VisibilityMap",
    "XMathDocument",
    "XMathNode",
    "ascribe",
    "assemble_parallel",
    "assemble_single",
    "assign_ids",
    "build_content",
    "build_parallel",
    "build_presentation",
    "build_registry",
    "check_links",
    "derive_display",
    "gen_cmml",
    "gen_pmml",
    "link_xrefs",
    "load_expansion_table",
    "mark_visibility",
    "parse_xmath",
    "read_xml_tree",
    "serialize_mathml",
    "target_from_raw",
    "token_to_cmml",
    "token_to_pmml",
]
