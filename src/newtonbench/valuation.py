"""Exact p-adic valuations over arbitrary-precision rationals.

Every quantity downstream is measured through ``val_p``, so two conventions
are fixed here once and for all: valuations are exact (int or Fraction,
never float), and the valuation of zero is a genuine +infinity that orders
strictly above every finite value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Rational = Union[int, Fraction]


class ValuationError(ValueError):
    """Contract violation in the valuation layer (bad prime, empty input, ...)."""


# Deterministic Miller-Rabin witness set; sound for n < 3.3e24, far beyond
# any prime this package is asked to use.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Prime:
    """A prime base for valuations, primality-checked at construction."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or self.p < 2 or not _is_prime(self.p):
            raise ValuationError(f"{self.p!r} is not a prime >= 2")

    def __int__(self) -> int:
        return self.p

    def __repr__(self) -> str:
        return f"Prime({self.p})"


TWO = Prime(2)


def as_prime(p: "Prime | int") -> Prime:
    return p if isinstance(p, Prime) else Prime(p)


def format_rational(q: Rational) -> str:
    """Render a rational as ``"num/den"``, with the denominator omitted when 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse a decimal rational string such as "-17/4"; ValuationError otherwise."""
    if not isinstance(s, str):
        raise ValuationError(f"expected a rational as a string, got {type(s).__name__} {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise ValuationError(f"not a rational: {s!r}") from None


class ExtVal:
    """A valuation value: an exact rational, or +infinity (the valuation of 0).

    Supports addition (infinity absorbs), multiplication by a scalar,
    negation of finite values, and total ordering with infinity on top.
    Comparisons and sums also accept bare ints/Fractions for convenience.
    """

    __slots__ = ("_value",)

    def __init__(self, value: "Rational | None"):
        object.__setattr__(self, "_value", None if value is None else Fraction(value))

    @classmethod
    def finite(cls, value: Rational) -> "ExtVal":
        return cls(Fraction(value))

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValuationError("infinite valuation has no finite value")
        return self._value

    @staticmethod
    def _coerce(other) -> "ExtVal | None":
        if isinstance(other, ExtVal):
            return other
        if isinstance(other, (int, Fraction)):
            return ExtVal(other)
        return None

    def __add__(self, other) -> "ExtVal":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._value is None or o._value is None:
            return INFINITY
        return ExtVal(self._value + o._value)

    __radd__ = __add__

    def __mul__(self, scalar) -> "ExtVal":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if self._value is None:
            if scalar <= 0:
                raise ValuationError("cannot scale infinity by a non-positive factor")
            return INFINITY
        return ExtVal(self._value * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "ExtVal":
        if self._value is None:
            raise ValuationError("cannot negate an infinite valuation")
        return ExtVal(-self._value)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._value == o._value

    def __lt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._value is None:
            return False  # infinity is not below anything
        if o._value is None:
            return True
        return self._value < o._value

    def __le__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self == o or self < o

    def __gt__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o < self

    def __ge__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o <= self

    def __hash__(self) -> int:
        return hash(self._value)

    def to_str(self) -> str:
        return "inf" if self._value is None else format_rational(self._value)

    @classmethod
    def from_str(cls, s: str) -> "ExtVal":
        s = s.strip()
        if s == "inf":
            return INFINITY
        return cls(parse_rational(s))

    def __repr__(self) -> str:
        return f"ExtVal({self.to_str()})"


INFINITY = ExtVal(None)


def _int_val(n: int, p: int) -> int:
    # n != 0; the p == 2 fast path matters: family coefficients are pure
    # powers of two with million-bit magnitudes.
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def val_p(x: Rational, p: "Prime | int" = TWO) -> ExtVal:
    """Exponent of p in x, as an ExtVal; val_p(0) is infinity.

    >>> val_p(48).value
    Fraction(4, 1)
    >>> val_p(Fraction(5, 8)).value
    Fraction(-3, 1)
    >>> val_p(0).is_finite
    False
    """
    prime = as_prime(p)
    q = Fraction(x)
    if q == 0:
        return INFINITY
    return ExtVal(_int_val(q.numerator, prime.p) - _int_val(q.denominator, prime.p))


def ultrametric_sum_bound(vals: Iterable[ExtVal]) -> ExtVal:
    """min of the inputs: the guaranteed lower bound on the valuation of a sum.

    Equality holds whenever the minimum is attained by exactly one term.
    An empty list is a contract violation.
    """
    vals = list(vals)
    if not vals:
        raise ValuationError("ultrametric bound needs at least one term")
    return min(vals)
