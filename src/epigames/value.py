"""Immutable value types: the one base every record of the toolkit derives from.

A subclass lists its fields as annotated class attributes, in order; a class
attribute gives a field its default, and an unannotated ``_ranges`` maps a
field to its range.  Instances take the fields by position or keyword, refuse
a number field that is nan, infinite or an int beyond every float, validate
by ``__post_init__`` and then ``_ranges``, refuse assignment and deletion,
equal only an instance of the same class with equal fields, and print as
``Name(field=value, ...)``.  ``replace`` builds a changed copy and validates
it again.  ``check_range`` words every range breach, of a ``_ranges`` field or
of a bare argument.  Unlike ``dataclasses``, the base costs next to nothing to
import and to apply, which every command pays at start-up.
"""

from __future__ import annotations

import sys
from typing import TypeVar

from .errors import _ECHO_CHARS, FieldError, echo

_V = TypeVar("_V", bound="Value")
_FLOAT_MAX = sys.float_info.max


def check_range(name: str, value: float, least: float, greatest: float | None = None) -> None:
    """Raise a ``FieldError`` naming ``name`` unless least <= value <= greatest, with no
    upper bound where ``greatest`` is None; nan lies in no range.  A value whose text
    is longer than 40 characters, such as an int of 301 digits, is cut by ``echo``."""
    if not (least <= value and (greatest is None or value <= greatest)):
        rule = "non-negative" if least == 0 else f"at least {least}"
        rule = rule if greatest is None else f"within [{least}, {greatest}]"
        shown = str(value)
        shown = shown if len(shown) <= _ECHO_CHARS else echo(shown)
        raise FieldError(f"{name} must be {rule}, got {shown}", name)


class Value:
    _fields: tuple[str, ...] = ()  # field names, in declaration order
    _field_defaults: dict[str, object] = {}
    _ranges: dict[str, tuple[float, float | None]] = {}  # field -> (least, greatest or None)

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._field_defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # every field by position needs no merging
            args = self._merge(args, kwargs)
        for field, value in zip(fields, args):
            # one comparison refuses nan, the infinities and ints beyond every float
            if isinstance(value, (int, float)) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                shown = repr(value) if isinstance(value, float) else "an int too large for a float"
                raise FieldError(f"{field} must be a finite number, got {shown}", field)
            object.__setattr__(self, field, value)  # keeps attribute reads on CPython's fast path
        self.__post_init__()
        for field, (least, greatest) in self._ranges.items():
            value = getattr(self, field)  # None is an unset field, such as a policy's parameter
            if value is not None:
                check_range(field, value, least, greatest)

    @classmethod
    def _merge(cls, args: tuple[object, ...], kwargs: dict[str, object]) -> tuple[object, ...]:
        """Every field's value, in order, from positions, keywords and defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)} positionally")
        given = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields or field in given:
                problem = "a repeated" if field in given else "an unknown"
                raise TypeError(f"{name}() got {problem} field {field!r}")
        values = {**cls._field_defaults, **given, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing fields {', '.join(missing)}")
        return tuple(values[field] for field in fields)

    def __post_init__(self) -> None:
        """Check the rules ``_ranges`` cannot state; a subclass overrides it and raises on a breach."""

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, field) for field in self._fields)

    def replace(self: _V, **changes: object) -> _V:
        """A copy with the given fields changed, validated again."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"
