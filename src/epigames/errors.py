"""Shared exception types for the toolkit, the quoting of input in their messages,
and the readers of numbers in input text, whose errors say what they expected."""

import re
import sys

_ECHO_CHARS = 40  # the most characters of an input's text that an error line repeats


def echo(raw: str) -> str:
    """``raw`` quoted for a one-line error message; a longer text than 40
    characters is cut to its first 40, followed by its length."""
    if len(raw) <= _ECHO_CHARS:
        return repr(raw)
    return f"{raw[:_ECHO_CHARS]!r}... ({len(raw)} characters)"


def read_number(raw: str, name: str = "") -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number{name and ' for '}{name}, got {echo(raw)}") from None


def read_integer(raw: str, name: str = "") -> int:
    try:
        return int(raw)
    except ValueError:
        # from 3.10.7 on, int() refuses a text of more digits than a limit, 4,300 by default: the one
        # way a text of its grammar (digits, a sign, single underscores, whitespace but \x1c-\x1f around) fails
        digits = re.fullmatch(r"[^\S\x1c-\x1f]*[+-]?\d+(_\d+)*[^\S\x1c-\x1f]*", raw)
        size = f" of at most {sys.get_int_max_str_digits()} digits" if digits else ""
        raise ValueError(f"expected an integer{size}{name and ' for '}{name}, got {echo(raw)}") from None


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
