"""Generators for the explicit hard instances: the q, p and x families.

At degree parameter d:

  * family q: coefficients 2^(2^i),       i = 0..d   (valuation 2^i)
  * family p: coefficients 2^(2^(d(d-i))), i = 0..d  (valuation 2^(d(d-i)))
  * family x: the d+1 points 2^(2^(d*i)), i = 0..d, and their monic
    vanishing polynomial of degree d+1.

The valuation-only representation is cheap, and the family parameter is
capped so that it stays so; the exact big-integer form is gated by a bit
budget because the largest coefficient needs about 2^(d^2) bits for p and
for the x roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .polynomials import DensePoly, PolynomialError, RootSpec, ValuedPoly, from_roots

DEFAULT_BIT_BUDGET = 1 << 20

# Cap on the bits of all valuations in a valued form, about d^2/2 for q and
# d^3/2 for p and x: the largest families admitted are q:8192, p:406, x:406.
MAX_VALUATION_BITS = 1 << 25

_KINDS = ("q", "p", "x")


class RepresentationInfeasible(PolynomialError):
    """Exact form would exceed the bit budget; carries the required bit count."""

    def __init__(self, family: "FamilyId", required_log2_bits: int, budget: int):
        self.family = family
        self.required_log2_bits = required_log2_bits
        self.budget = budget
        super().__init__(
            f"exact representation of {family} needs 2^{required_log2_bits} bits "
            f"(budget {budget})"
        )


@dataclass(frozen=True)
class FamilyId:
    kind: str
    d: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise PolynomialError(f"unknown family kind {self.kind!r}")
        if self.d < 1:
            raise PolynomialError(f"family parameter d must be >= 1, got {self.d}")
        bits = self.d ** (2 if self.kind == "q" else 3) // 2
        if bits > MAX_VALUATION_BITS:
            raise PolynomialError(
                f"family parameter d = {self.d} too large: about {bits} valuation "
                f"bits (cap {MAX_VALUATION_BITS})")

    def __str__(self) -> str:
        return f"{self.kind}:{self.d}"


def parse_family(spec: str) -> FamilyId:
    """Parse a family spec string like ``q:5``, ``p:3`` or ``x:2``."""
    try:
        kind, _, d = spec.strip().lower().partition(":")
        return FamilyId(kind, int(d))
    except (ValueError, PolynomialError) as exc:
        raise PolynomialError(f"bad family spec {spec!r}: {exc}") from exc


def _required_log2_bits(fid: FamilyId) -> int:
    # Largest exponent appearing in any exact coefficient or point.
    if fid.kind == "q":
        return fid.d
    return fid.d * fid.d  # p coefficients and x roots both top out at 2^(d*d)


def _check_budget(fid: FamilyId, bit_budget: int) -> None:
    if bit_budget < 0:
        raise PolynomialError(f"bit budget must be >= 0, got {bit_budget}")
    e = _required_log2_bits(fid)
    # 2^e <= budget  <=>  e <= floor(log2 budget); never materialize 2^e here
    if e > bit_budget.bit_length() - 1:
        raise RepresentationInfeasible(fid, e, bit_budget)


def gen_valued(fid: FamilyId) -> ValuedPoly:
    """The family polynomial as coefficient valuations at 2; never materializes coefficients."""
    d = fid.d
    if fid.kind == "q":
        return ValuedPoly(2, d, [(i, 1 << i) for i in range(d + 1)])
    if fid.kind == "p":
        return ValuedPoly(2, d, [(i, 1 << (d * (d - i))) for i in range(d + 1)])
    # family x: the monic vanishing polynomial of the d+1 points 2^(2^(d*i)).
    # Root valuations 2^(d*i) are pairwise distinct, so every ultrametric
    # inequality is strict and coefficient k has valuation exactly the sum of
    # the (degree - k) smallest root valuations.
    root_vals = [1 << (d * i) for i in range(d + 1)]  # ascending
    degree = d + 1
    entries = []
    acc = 0
    entries.append((degree, 0))
    for k in range(degree - 1, -1, -1):
        acc += root_vals[degree - 1 - k]
        entries.append((k, acc))
    return ValuedPoly(2, degree, entries)


def gen_exact(fid: FamilyId, bit_budget: int = DEFAULT_BIT_BUDGET) -> DensePoly:
    """The literal big-integer polynomial; errors out beyond the bit budget."""
    _check_budget(fid, bit_budget)
    d = fid.d
    if fid.kind == "q":
        return DensePoly([1 << (1 << i) for i in range(d + 1)])
    if fid.kind == "p":
        return DensePoly([1 << (1 << (d * (d - i))) for i in range(d + 1)])
    roots = [(Fraction(1 << (1 << (d * i))), 1) for i in range(d + 1)]
    return from_roots(RootSpec(roots), 1)


def x_points(d: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> List[Fraction]:
    """The d+1 points of the x family, ascending."""
    fid = FamilyId("x", d)
    _check_budget(fid, bit_budget)
    return [Fraction(1 << (1 << (d * i))) for i in range(d + 1)]
