"""Exception hierarchy for the sqlgrow package."""


class SqlgrowError(Exception):
    """Base class for all package errors."""


class SqlSyntaxError(SqlgrowError):
    """SQL text could not be parsed."""

    def __init__(self, message: str, position: int = -1):
        self.position = position
        if position >= 0:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedSqlError(SqlSyntaxError):
    """SQL uses a construct outside the supported dialect subset."""


class StructuralError(SqlgrowError):
    """An AST violates a node invariant or does not match a mutation plan."""


class SchemaValidationError(SqlgrowError):
    """A loaded schema violates its invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class AmbiguousColumnError(SqlgrowError):
    """An unqualified column matches more than one table in scope."""

    def __init__(self, column: str, candidates):
        self.column = column
        self.candidates = sorted(candidates)
        super().__init__(
            f"column '{column}' is ambiguous; candidates: {', '.join(self.candidates)}"
        )


class InfeasibleOperatorError(SqlgrowError):
    """A mutation was planned for an operator with no eligible sites."""


class DomainError(SqlgrowError):
    """A numeric argument is outside its documented domain."""


class TransportError(SqlgrowError):
    """A model backend could not be reached or kept failing."""


class ResponseFormatError(SqlgrowError):
    """A model response did not match the expected output contract."""


class InstanceFileError(SqlgrowError):
    """A line of a JSONL file of instances does not hold an instance."""


class ConfigError(SqlgrowError):
    """A run configuration is invalid."""
