"""Univariate polynomials over Q, in two representations.

``DensePoly`` carries exact rational coefficients and supports the full
arithmetic needed elsewhere (expansion from roots, exact division, gcd,
squarefree part). ``ValuedPoly`` keeps only the 2-adic (or p-adic) valuation
of each coefficient, which is the only feasible carrier for the hard
families whose coefficients have millions of bits. The ``z*`` functions are
a Fraction-free kernel on integer coefficient tuples (arithmetic, primitive
part, gcd, exact quotient, squarefree part) for callers, like the tree
enumerator, that need many small exact gcds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Tuple, Union

from .valuation import (
    ExtVal,
    INFINITY,
    Prime,
    Rational,
    as_prime,
    format_rational,
    parse_rational,
    val_p,
)


class PolynomialError(ValueError):
    """Contract violation in polynomial operations."""


class DensePoly:
    """Immutable dense polynomial; coefficient i belongs to t^i.

    The zero polynomial is the empty coefficient tuple and has degree -1.
    No content/primitive-part normalization is ever applied implicitly:
    16t^2 + 4t + 2 keeps its printed coefficients.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "DensePoly":
        return cls(())

    @classmethod
    def one(cls) -> "DensePoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "DensePoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: Rational) -> "DensePoly":
        return cls((c,))

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading(self) -> Fraction:
        if not self._coeffs:
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self._coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, DensePoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return DensePoly(out)

    def __neg__(self) -> "DensePoly":
        return DensePoly(tuple(-c for c in self._coeffs))

    def __sub__(self, other: "DensePoly") -> "DensePoly":
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "DensePoly":
        if isinstance(other, (int, Fraction)):
            return DensePoly(tuple(c * other for c in self._coeffs))
        if not isinstance(other, DensePoly):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return DensePoly.zero()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return DensePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DensePoly":
        if n < 0:
            raise PolynomialError("negative polynomial power")
        result = DensePoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "DensePoly") -> Tuple["DensePoly", "DensePoly"]:
        if not isinstance(other, DensePoly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self._coeffs)
        d = other.degree
        lead = other.leading
        if len(rem) - 1 < d:
            return DensePoly.zero(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c:
                q = c / lead
                quot[i - d] = q
                for j, oc in enumerate(other._coeffs):
                    rem[i - d + j] -= q * oc
        return DensePoly(quot), DensePoly(rem)

    def __floordiv__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "DensePoly") -> "DensePoly":
        return divmod(self, other)[1]

    def evaluate(self, x: Rational) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "DensePoly":
        return DensePoly(tuple(i * c for i, c in enumerate(self._coeffs))[1:])

    def monic(self) -> "DensePoly":
        if self.is_zero:
            raise PolynomialError("zero polynomial cannot be made monic")
        if self.leading == 1:
            return self
        inv = 1 / self.leading
        return DensePoly(tuple(c * inv for c in self._coeffs))

    def gcd(self, other: "DensePoly") -> "DensePoly":
        """Monic gcd over Q (Euclid); gcd(0, 0) is 0."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def __repr__(self) -> str:
        if self.is_zero:
            return "DensePoly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self._coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(format_rational(c))
            elif i == 1:
                terms.append(f"{format_rational(c)}*t")
            else:
                terms.append(f"{format_rational(c)}*t^{i}")
        return f"DensePoly({' + '.join(terms)})"


@dataclass(frozen=True)
class RootSpec:
    """Rational roots with multiplicities, e.g. RootSpec(((2, 2), (Fraction(1, 4), 1)))."""

    entries: Tuple[Tuple[Fraction, int], ...]

    def __init__(self, entries: Iterable[Tuple[Rational, int]]):
        norm = []
        for root, mult in entries:
            if mult < 1:
                raise PolynomialError(f"multiplicity {mult} < 1")
            norm.append((Fraction(root), int(mult)))
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.entries)


def from_roots(spec: "RootSpec | Iterable[Tuple[Rational, int]]",
               leading: Rational = 1) -> DensePoly:
    """Expand leading * prod (t - root)^mult exactly.

    Iterated multiplication of the linear factors; this evaluates the
    elementary symmetric functions of the roots without ever forming them
    separately.
    """
    leading = Fraction(leading)
    if leading == 0:
        raise PolynomialError("leading coefficient must be nonzero")
    if not isinstance(spec, RootSpec):
        spec = RootSpec(spec)
    poly = DensePoly.constant(leading)
    for root, mult in spec.entries:
        factor = DensePoly((-root, 1))
        for _ in range(mult):
            poly = poly * factor
    return poly


def divides(f: DensePoly, g: DensePoly) -> bool:
    """True iff f divides g exactly over Q. Zero is a multiple of everything."""
    if f.is_zero:
        raise PolynomialError("division test by the zero polynomial")
    if g.is_zero:
        return True
    if g.degree < f.degree:
        return False
    return (g % f).is_zero


def squarefree_part(f: DensePoly) -> DensePoly:
    """f / gcd(f, f'), normalized monic: the same roots, each once."""
    if f.is_zero:
        raise PolynomialError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return DensePoly.one()
    g = f.gcd(f.derivative())
    return (f // g).monic()


# -- integer kernel --------------------------------------------------------
#
# Polynomials over Z as tuples of ints, constant term first, no trailing
# zeros; () is zero. A nonzero polynomial over Q is represented up to a
# rational factor by its primitive part with positive leading coefficient,
# which is unique (Gauss's lemma), so primitive tuples stand in for monic
# polynomials as exact, Fraction-free keys. gcd and squarefree part follow
# the primitive pseudo-remainder sequence (Collins 1967).


def zstrip(cs: list) -> tuple:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def zadd(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return zstrip(out)


def zsub(a: tuple, b: tuple) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return zstrip(out)


def zmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return zstrip(out)


def zprimitive(a: tuple) -> tuple:
    """a divided by its content, sign chosen so the leading coefficient is positive."""
    if not a:
        return a
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return a if c == 1 else tuple(x // c for x in a)


def _zprem(a: tuple, b: tuple) -> tuple:
    """A nonzero integer multiple of the remainder of a by b over Q."""
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    while len(r) > db:
        c = r[-1]
        shift = len(r) - 1 - db
        if c % lead:
            r = [x * lead for x in r]
        else:
            c //= lead
        for j, bc in enumerate(b):
            r[shift + j] -= c * bc
        r.pop()  # the leading term cancels
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def zgcd(a: tuple, b: tuple) -> tuple:
    """gcd over Q as a primitive polynomial with positive lead; gcd(0, 0) is 0."""
    a, b = zprimitive(a), zprimitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, zprimitive(_zprem(a, b))
    return a


def zquo(a: tuple, b: tuple) -> tuple:
    """The quotient a / b, which must be exact over Z."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lead = b[-1]
    quot = [0] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q, rem = divmod(c, lead)
            if rem:
                raise PolynomialError(f"{b} does not divide {a}")
            quot[i - db] = q
            for j, bc in enumerate(b):
                r[i - db + j] -= q * bc
    if any(r):
        raise PolynomialError(f"{b} does not divide {a}")
    return zstrip(quot)


def zsquarefree(a: tuple) -> tuple:
    """Primitive squarefree part: the same roots, each once."""
    if not a:
        raise PolynomialError("squarefree part of the zero polynomial")
    if len(a) == 1:
        return (1,)
    a = zprimitive(a)
    return zquo(a, zgcd(a, tuple(i * c for i, c in enumerate(a))[1:]))


class ValuedPoly:
    """Coefficient-index -> valuation view of a polynomial at a fixed prime.

    Omitted indices mean valuation infinity (zero coefficient). The entry at
    the degree index must be present: the leading coefficient is nonzero.
    """

    __slots__ = ("_prime", "_degree", "_entries")

    def __init__(self, prime: "Prime | int", degree: int,
                 entries: Iterable[Tuple[int, Union[Rational, ExtVal]]]):
        prime = as_prime(prime)
        if degree < 0:
            raise PolynomialError("degree must be >= 0")
        norm = {}
        for idx, val in entries:
            idx = int(idx)
            if isinstance(val, ExtVal):
                if not val.is_finite:
                    continue  # explicit infinity is the same as omission
                val = val.value
            val = Fraction(val)
            if not 0 <= idx <= degree:
                raise PolynomialError(f"entry index {idx} outside [0, {degree}]")
            if idx in norm:
                raise PolynomialError(f"duplicate entry at index {idx}")
            norm[idx] = val
        if degree not in norm:
            raise PolynomialError("leading coefficient must have a finite valuation")
        object.__setattr__(self, "_prime", prime)
        object.__setattr__(self, "_degree", degree)
        object.__setattr__(self, "_entries", tuple(sorted(norm.items())))

    @property
    def prime(self) -> Prime:
        return self._prime

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def entries(self) -> Tuple[Tuple[int, Fraction], ...]:
        """Finite entries as (index, valuation), sorted by index."""
        return self._entries

    def val_at(self, i: int) -> ExtVal:
        for idx, val in self._entries:
            if idx == i:
                return ExtVal(val)
        return INFINITY

    @property
    def has_zero_coefficients(self) -> bool:
        return len(self._entries) != self._degree + 1

    def __eq__(self, other) -> bool:
        if isinstance(other, ValuedPoly):
            return (self._prime == other._prime and self._degree == other._degree
                    and self._entries == other._entries)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._prime, self._degree, self._entries))

    def __repr__(self) -> str:
        pts = ", ".join(f"({i}, {format_rational(v)})" for i, v in self._entries)
        return f"ValuedPoly(p={int(self._prime)}, deg={self._degree}, {{{pts}}})"


def coefficient_valuations(poly: DensePoly, p: "Prime | int" = 2) -> ValuedPoly:
    """The valuation of every nonzero coefficient; zero coefficients are omitted."""
    if poly.is_zero:
        raise PolynomialError("zero polynomial has no coefficient valuations")
    prime = as_prime(p)
    entries = []
    for i, c in enumerate(poly.coeffs):
        if c:
            entries.append((i, val_p(c, prime).value))
    return ValuedPoly(prime, poly.degree, entries)


# -- JSON wire format ------------------------------------------------------

def poly_to_json(poly: "DensePoly | ValuedPoly") -> dict:
    if isinstance(poly, DensePoly):
        return {"repr": "dense", "coeffs": [format_rational(c) for c in poly.coeffs]}
    if isinstance(poly, ValuedPoly):
        return {
            "repr": "valued",
            "prime": int(poly.prime),
            "degree": poly.degree,
            "entries": [[i, format_rational(v)] for i, v in poly.entries],
        }
    raise PolynomialError(f"not a polynomial: {poly!r}")


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # bool is an int subclass, not a count
        raise PolynomialError(f"{what} must be a JSON integer, not {value!r}")
    return value


def poly_from_json(obj: dict) -> "DensePoly | ValuedPoly":
    if not isinstance(obj, dict):
        raise PolynomialError(f"a polynomial is a JSON object, not {type(obj).__name__}")
    kind = obj.get("repr")
    if kind == "dense":
        coeffs = obj["coeffs"]
        if not (isinstance(coeffs, list) and all(isinstance(c, str) for c in coeffs)):
            raise PolynomialError('"coeffs" must be a list of rational strings')
        return DensePoly(parse_rational(c) for c in coeffs)
    if kind == "valued":
        entries = obj["entries"]
        if not (isinstance(entries, list)
                and all(isinstance(e, list) and len(e) == 2 for e in entries)):
            raise PolynomialError('"entries" must be a list of [index, "valuation"] pairs')
        pairs = [(_json_int(i, "an entry index"), parse_rational(v)) for i, v in entries]
        return ValuedPoly(_json_int(obj["prime"], "prime"),
                          _json_int(obj["degree"], "degree"), pairs)
    raise PolynomialError(f"unknown polynomial repr {kind!r}")
