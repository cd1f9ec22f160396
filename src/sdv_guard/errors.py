"""Exception types shared across the toolkit.

Every error raised by this package derives from SdvGuardError so callers can
catch one type at the pipeline boundary and map it to an exit code.
"""

from __future__ import annotations


class SdvGuardError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SdvGuardError):
    """Missing or inconsistent configuration, file paths, or call preconditions."""


class CatalogParseError(SdvGuardError):
    """Malformed catalog text; carries line/column when the underlying parser knows them."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class _LineError(SdvGuardError):
    """Text outside a line-oriented format; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class _PositionError(SdvGuardError):
    """Text outside an expression grammar; carries the character position when known."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CatalogError(SdvGuardError):
    """Structurally invalid catalog content, e.g. duplicate keys."""


class SchemaError(SdvGuardError):
    """A catalog node violates the documented field schema."""


class ChunkingError(SdvGuardError):
    """An entry cannot fit any chunk under the given token budget."""


class TemplateError(SdvGuardError):
    """Unknown template id or missing placeholder binding."""


class GatewayError(SdvGuardError):
    """Completion endpoint failure or malformed endpoint response."""


class ReplayMissError(GatewayError):
    """Replay-mode lookup found no completion for the prompt digest."""

    def __init__(self, digest: str):
        self.digest = digest
        super().__init__(f"no recorded completion for prompt digest {digest}")


class ExtractionFormatError(SdvGuardError):
    """Completion text does not contain a usable entry array."""


class DiagramParseError(_LineError):
    """Activity diagram text outside the supported subset; carries the line number."""


class StructureError(SdvGuardError):
    """Parsed diagram violates a graph invariant (start/stop counts, reachability, arity)."""


class TransformError(SdvGuardError):
    """A graph cannot be turned into a chain document (e.g. unlabeled action)."""


class UnsupportedStructureError(SdvGuardError):
    """Path enumeration hit a structure it cannot enumerate (a cycle), or a
    rule's monitor product outgrew its budget."""


class ChainGenerationError(SdvGuardError):
    """Generated chain text failed to parse; carries the raw completion and the cause."""

    def __init__(self, message: str, raw_text: str, cause: Exception | None = None):
        self.raw_text = raw_text
        self.cause = cause
        super().__init__(message)


class RuleParseError(_PositionError):
    """Rule text outside the grammar; carries the character position when known."""


class MetamodelError(SdvGuardError):
    """Invalid metamodel document (duplicate names, unknown targets, inheritance cycle)."""


class InstanceParseError(SdvGuardError):
    """Invalid canonical instance document (duplicate ids, unresolvable references)."""


class ModelImportError(_LineError):
    """Object-diagram text outside the supported subset; carries the line number."""


class ConstraintError(_PositionError):
    """Constraint text failed to parse or type-check; names the offending symbol."""

    def __init__(self, message: str, position: int | None = None, symbol: str | None = None):
        self.symbol = symbol
        super().__init__(message, position)


class GenerationError(SdvGuardError):
    """Model or constraint generation kept failing after the allowed retry."""

    def __init__(self, message: str, attempts: tuple = ()):
        self.attempts = attempts
        super().__init__(message)


class PipelineError(SdvGuardError):
    """A pipeline stage failed; carries the stage name and the run record so
    far. ``unwritten`` is the error that kept that record from being saved."""

    def __init__(self, stage: str, cause: Exception, record=None,
                 unwritten: Exception | None = None):
        self.stage = stage
        self.cause = cause
        self.record = record
        tail = f"; {unwritten}" if unwritten is not None else ""
        super().__init__(f"stage '{stage}' failed: {cause}{tail}")


class DeploymentError(SdvGuardError):
    """Deployment target unreachable or rejected the artifact."""
