"""Shared exception types for the toolkit."""


class DomainError(ValueError):
    """A computation was requested outside its mathematical domain."""


class FieldError(ValueError):
    """A value type's fields break one of its rules; ``fields`` names them."""

    def __init__(self, message: str, *fields: str):
        super().__init__(message)
        self.fields = fields


class ScenarioError(ValueError):
    """A scenario file is missing, malformed, or violates an invariant."""


class VerificationError(RuntimeError):
    """An analytic result disagrees with its brute-force cross-check."""
