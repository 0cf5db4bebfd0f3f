"""Exception types shared across the package."""


class ScatterSimError(Exception):
    """Base class for all package-specific errors."""


class DistinctSitesError(ScatterSimError, ValueError):
    """Voronoi input was empty or contained duplicate sites."""


class GeometryError(ScatterSimError):
    """A geometric routine could not produce a valid result."""


class CapabilityError(ScatterSimError):
    """A protocol needs a capability the scenario does not grant."""


class ContractViolationError(ScatterSimError):
    """A caller broke a documented precondition."""


class ScenarioValidationError(ScatterSimError, ValueError):
    """A scenario field is missing, inconsistent, or out of range."""


class NotDeterministicError(ScatterSimError):
    """A rule drew randomness inside a coin-free harness."""


class DigestMismatchError(ScatterSimError):
    """Stored digest does not match the embedded scenario."""


class TraceFormatError(ScatterSimError, ValueError):
    """A trace file is malformed or truncated."""


class ScenarioParseError(ScatterSimError, ValueError):
    """A scenario file failed to parse; carries the offending line, or
    None when no line holds the fault (a missing top-level key)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.reason = message
