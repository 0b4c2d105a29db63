"""Exact objective values: rationals extended with a single infinity.

All costs in this package are elements of Q ∪ {∞} with the arithmetic

* ``a + ∞ = ∞`` for every ``a``,
* ``0 · ∞ = 0`` and ``r · ∞ = ∞`` for rational ``r > 0``,
* ``a < ∞`` for every rational ``a``.

Finite values are stored as :class:`fractions.Fraction`, so they are always
in lowest terms with a positive denominator and all comparisons are exact.
Floating point is never used.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union

Rational = Union[int, Fraction]


@total_ordering
class Cost:
    """A single value in Q ∪ {∞}; immutable."""

    __slots__ = ("_value",)

    def __init__(self, value: Rational | None):
        if value is not None and not isinstance(value, Fraction):
            value = Fraction(value)
        object.__setattr__(self, "_value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Cost is immutable")

    @staticmethod
    def finite(numerator: Rational, denominator: int = 1) -> "Cost":
        return Cost(Fraction(numerator, denominator))

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def fraction(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite cost has no rational value")
        return self._value

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        if self._value is None or other._value is None:
            return INF
        return Cost(self._value + other._value)

    def shift(self, amount: Rational) -> "Cost":
        """Add a rational constant; infinity is absorbing."""
        if self._value is None:
            return INF
        return Cost(self._value + Fraction(amount))

    def scale(self, factor: Rational) -> "Cost":
        """Multiply by a nonnegative rational, with 0 · ∞ = 0."""
        factor = Fraction(factor)
        if factor < 0:
            raise ValueError("scaling factor must be nonnegative")
        if factor == 0:
            return ZERO
        if self._value is None:
            return INF
        return Cost(self._value * factor)

    def half_sum(self, other: "Cost") -> "Cost":
        """Exact average of two costs (∞ if either is ∞)."""
        if self._value is None or other._value is None:
            return INF
        return Cost((self._value + other._value) / 2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cost):
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other: "Cost") -> bool:
        if not isinstance(other, Cost):
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("Cost", self._value))

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"Cost({self})"


INF = Cost(None)
ZERO = Cost(0)


def parse_cost(token: str) -> Cost:
    """Parse ``inf``, an integer, or ``p/q`` into a cost."""
    token = token.strip()
    if token == "inf":
        return INF
    try:
        return Cost(Fraction(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad cost token {token!r}") from exc
