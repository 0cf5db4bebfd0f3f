"""Exception types shared across the package."""


class ScatterSimError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(ScatterSimError):
    """A geometric routine could not produce a valid result."""


class CapabilityError(ScatterSimError):
    """A protocol needs a capability the scenario does not grant."""


class ContractViolationError(ScatterSimError):
    """A caller broke a documented precondition."""


class ScenarioValidationError(ScatterSimError, ValueError):
    """A scenario field is missing, inconsistent, or out of range; ``field``
    names its scenario-file key, ``"section.key"`` or a top-level key, when
    one is at fault (``"scheduler.param"`` is ``p`` or ``window``)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class NotDeterministicError(ScatterSimError):
    """A rule drew randomness inside a coin-free harness."""


class DigestMismatchError(ScatterSimError):
    """A trace header's digest is not that of its embedded scenario (load_trace)."""


class TraceFormatError(ScatterSimError, ValueError):
    """A trace file is malformed or truncated."""


class ScenarioParseError(ScatterSimError, ValueError):
    """A scenario file failed to parse; carries the offending line, or
    None when no line holds the fault (a missing top-level key)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.reason = message
