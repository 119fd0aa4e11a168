"""Exception types shared across the conversion pipeline."""

from __future__ import annotations

from enum import Enum


class ParseErrorKind(Enum):
    MALFORMED_XML = "malformed-xml"
    UNKNOWN_ELEMENT = "unknown-element"
    DUAL_ARITY = "dual-arity"
    DANGLING_IDREF = "dangling-idref"
    DUPLICATE_ID = "duplicate-id"


class ParseError(Exception):
    """A rejected input document.

    Every rejected input produces exactly one ParseError carrying the kind
    of the primary problem and its line/column location (1-based).
    """

    def __init__(self, kind: ParseErrorKind, line: int, col: int, detail: str):
        super().__init__(f"{line}:{col}: {detail}")
        self.kind = kind
        self.line = line
        self.col = col
        self.detail = detail


class ConversionError(Exception):
    """Base for errors raised while generating MathML from a parsed document.

    ``str()`` is ``detail`` after the node's line:col, when it has one.
    """

    def __init__(self, detail: str, node=None):
        self.detail, self.node = detail, node
        super().__init__(f"{self.line}:{self.col}: {detail}" if self.line else detail)

    @property
    def line(self) -> int:
        return getattr(self.node, "line", 0) or 0

    @property
    def col(self) -> int:
        return getattr(self.node, "col", 0) or 0


class MalformedApplyError(ConversionError):
    """An XMApp with no operator child cannot be rendered."""


class ContentWrapError(ConversionError):
    """An XMWrap was reached on the content side; it has no content semantics."""


class ArityMismatchError(ConversionError):
    """An application's argument count does not match its expansion rule."""


class ReferenceCycleError(ConversionError):
    """A chain of XMRef nodes loops back on itself."""


class IdCollisionError(ConversionError):
    """An allocated output id clashes with an existing one."""

