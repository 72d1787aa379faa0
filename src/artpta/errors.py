"""Exception types shared across the toolkit."""

from __future__ import annotations


class ArtError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ArtError):
    """IR text does not conform to the grammar (carries line/column)."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class ResolutionError(ArtError):
    """A name in the IR does not resolve: unknown call target, unknown
    branch label, variable used before assignment, or missing entry method."""


class DuplicateNameError(ArtError):
    """Duplicate method name, parameter name, or statement label."""


class IrreducibleCfgError(ArtError):
    """A retreating control-flow edge is not a dominator back-edge, so the
    graph has no natural-loop structure and cannot be regenerated in one pass."""


class ArityMismatchError(ArtError):
    """A call statement's actual-argument count differs from the callee's
    parameter count."""


class MalformedArtworkError(ArtError):
    """An artifact file violates the ART/5 syntax.  That includes every
    ``ART/4`` file: its header is not ``ART/5``, and its ``[loop]`` entries
    held each header's whole value, not what the loop adds there."""


class UnknownReferenceError(ArtError):
    """A syntactically valid artifact references a method, slot, label, or
    summary key that does not exist in the program it is checked against."""


class NothingToTamperError(ArtError):
    """The artwork has no element eligible for the requested mutation."""
