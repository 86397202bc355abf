"""Shared exception types for the toolkit, and the quoting of input in their messages."""

_ECHO_CHARS = 40  # the most characters of an input's text that an error line repeats


def echo(raw: str) -> str:
    """``raw`` quoted for a one-line error message; a longer text than 40
    characters is cut to its first 40, followed by its length."""
    if len(raw) <= _ECHO_CHARS:
        return repr(raw)
    return f"{raw[:_ECHO_CHARS]!r}... ({len(raw)} characters)"


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
