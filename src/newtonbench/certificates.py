"""Checkable lower-bound certificates.

The central object is the non-scalar-multiplication bound
L >= sqrt(d / (c * log2(D) + 1)), c in {28, 21}, valid whenever an ordered
root list has a d-term subsequence whose last valuation is >= 1 and whose
consecutive terms at positions i_j satisfy
value_j >= 2 * (i_{j+1} - i_j) * value_{j+1}.

Every verdict here is exact: the bound is never evaluated with a floating
square root; a candidate L is tested through integer comparisons of
D^(c*L^2) against 2^(d - L^2). The subset-sum and gap checks that back the
counting step are plain brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Optional, Sequence, Tuple

from .polygon import RootProfile, lower_hull
from .polynomials import ValuedPoly
from .valuation import Rational

CONSTANTS = (28, 21)
DEFAULT_SUBSET_BUDGET = 24


class CertificateError(ValueError):
    pass


@dataclass(frozen=True)
class GapSequence:
    """Strictly decreasing exact values G_0 > G_1 > ..."""

    values: Tuple[Fraction, ...]

    def __init__(self, values: Iterable[Rational]):
        vals = tuple(Fraction(v) for v in values)
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                raise CertificateError("gap sequence must strictly decrease")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def check_lemma_conditions(profile: RootProfile,
                           subsequence: Sequence[int]) -> Tuple[bool, bool]:
    """Evaluate both growth conditions on a subsequence of the ordered root list.

    ``subsequence`` holds strictly increasing 0-based positions into the flat
    root list (largest valuation first, roots at zero included as infinity).
    Condition 1: the last selected valuation is >= 1. Condition 2: each
    selected valuation is >= 2 * (position gap) * (next selected valuation).
    """
    flat = profile.valuations()
    if not subsequence:
        raise CertificateError("subsequence must select at least one root")
    for a, b in zip(subsequence, subsequence[1:]):
        if not a < b:
            raise CertificateError("subsequence positions must strictly increase")
    if subsequence[0] < 0 or subsequence[-1] >= len(flat):
        raise CertificateError(
            f"subsequence positions out of range [0, {len(flat) - 1}]")
    selected = [flat[i] for i in subsequence]
    condition1 = selected[-1] >= 1
    condition2 = True
    for j in range(len(selected) - 1):
        gap = subsequence[j + 1] - subsequence[j]
        if not selected[j] >= selected[j + 1] * (2 * gap):
            condition2 = False
            break
    return condition1, condition2


class LemmaBound:
    """Exact comparison object for L >= sqrt(d / (constant * log2(D) + 1)).

    ``meets(L)`` decides, in integer arithmetic only, whether a candidate
    multiplication count L already satisfies the bound. ``ceiling`` is the
    least such L. ``approx()`` is a display-only rational approximation.
    """

    def __init__(self, d: int, D: int, constant: int = 28):
        if d < 1 or D < 1:
            raise CertificateError("d and D must be positive")
        if constant not in CONSTANTS:
            raise CertificateError(f"constant must be one of {CONSTANTS}")
        self.d = d
        self.D = D
        self.constant = constant

    def meets(self, L: int) -> bool:
        """L^2 * (constant * log2(D) + 1) >= d, decided exactly."""
        if L < 1:
            return False
        rest = self.d - L * L
        if rest <= 0:
            return True
        # Remaining question: D^(constant * L^2) >= 2^rest.
        m = self.constant * L * L
        bl = self.D.bit_length()
        if m * (bl - 1) >= rest:  # D >= 2^(bl-1)
            return True
        if m * bl <= rest:  # D < 2^bl
            return False
        return self.D ** m >= 1 << rest

    @property
    def ceiling(self) -> int:
        lo, hi = 1, isqrt(self.d) + 1  # hi always meets: hi^2 >= d
        while lo < hi:
            mid = (lo + hi) // 2
            if self.meets(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def approx(self, digits: int = 6) -> Fraction:
        """Rational approximation of the bound; not used in any verdict."""
        scale = 10 ** digits
        if self.D & (self.D - 1) == 0:  # power of two: the radicand is rational
            t = self.D.bit_length() - 1
            v = Fraction(self.d, self.constant * t + 1)
            return Fraction(isqrt(v.numerator * v.denominator * scale * scale),
                            v.denominator * scale)
        value = math.sqrt(self.d / (self.constant * math.log2(self.D) + 1))
        return Fraction(round(value * scale), scale)

    def __repr__(self) -> str:
        return f"LemmaBound(d={self.d}, D={self.D}, constant={self.constant})"


def lemma_bound(d: int, D: int, constant: int = 28) -> LemmaBound:
    return LemmaBound(d, D, constant)


def _count_subset_sums(vals: Sequence[Fraction]) -> int:
    """Number of distinct subset sums, counted on the values times their common denominator."""
    m = math.lcm(*(v.denominator for v in vals))
    sums = {0}
    for v in vals:
        k = v.numerator * (m // v.denominator)
        sums |= {s + k for s in sums}
    return len(sums)


def subset_sums_distinct(values: "GapSequence | Iterable[Rational]",
                         budget: int = DEFAULT_SUBSET_BUDGET) -> Tuple[int, bool]:
    """Brute-force count of distinct subset sums; distinct iff count == 2^n."""
    vals = values.values if isinstance(values, GapSequence) else tuple(
        Fraction(v) for v in values)
    n = len(vals)
    if n > budget:
        raise CertificateError(f"{n} values exceed the 2^{budget} enumeration budget")
    count = _count_subset_sums(vals)
    return count, count == 1 << n


def gap_condition(values: "GapSequence | Iterable[Rational]") -> bool:
    """|G_{j+1} - G_j| < |G_j - G_{j-1}| / 2 for every j, strictly.

    Vacuously true below three values. Note this condition alone does NOT
    imply distinct subset sums: (22, 13, 9, 8) passes the gaps (9, 4, 1) yet
    collides at 22 = 13 + 9.
    """
    vals = values.values if isinstance(values, GapSequence) else tuple(
        Fraction(v) for v in values)
    for j in range(1, len(vals) - 1):
        if not 2 * abs(vals[j + 1] - vals[j]) < abs(vals[j] - vals[j - 1]):
            return False
    return True


def mu_lower_count(vp: ValuedPoly,
                   subset_budget: int = DEFAULT_SUBSET_BUDGET) -> int:
    """Distinct valuations of products of coefficient subsets, by brute force.

    The valuation of a product is the sum of the valuations, so this counts
    distinct subset sums of the finite coefficient valuations; if the
    polynomial has zero coefficients, subsets containing them contribute the
    single extra value infinity.
    """
    vals = [v for _, v in vp.entries]
    if len(vals) > subset_budget:
        raise CertificateError(
            f"{len(vals)} finite entries exceed the subset budget {subset_budget}")
    return _count_subset_sums(vals) + (1 if vp.has_zero_coefficients else 0)


def uniform_threshold(T: int) -> int:
    """Least d making the single-root valuation 2^(d-1) outrun 2^(1+T^2): d = T^2 + 3."""
    if T < 1:
        raise CertificateError("T must be >= 1")
    return T * T + 3


def uniform_threshold_exceeded(T: int, d: int) -> bool:
    """Whether d is strictly beyond the uniform contradiction threshold 2 + T^2."""
    if T < 1:
        raise CertificateError("T must be >= 1")
    return d > T * T + 2


def nonuniform_threshold(T: int, constant: int = 28) -> int:
    """Least d contradicting T >= sqrt(d / (constant * (T+1))): constant*T^2*(T+1) + 1."""
    if T < 1:
        raise CertificateError("T must be >= 1")
    if constant not in CONSTANTS:
        raise CertificateError(f"constant must be one of {CONSTANTS}")
    return constant * T * T * (T + 1) + 1


def nonuniform_threshold_exceeded(T: int, d: int, constant: int = 28) -> bool:
    if T < 1:
        raise CertificateError("T must be >= 1")
    if constant not in CONSTANTS:
        raise CertificateError(f"constant must be one of {CONSTANTS}")
    return d > constant * (T + 1) * T * T


@dataclass(frozen=True)
class LemmaCertificate:
    """Serializable record of one lower-bound check.

    The bound fields are populated only when both growth conditions hold.
    The gap/subset-sum fields record the two counting checks separately;
    ``gap_anomaly`` flags the documented situation where the gap condition
    holds but the subset sums still collide.
    """

    d: int
    D: int
    constant: int
    subsequence_indices: Tuple[int, ...]
    condition1_holds: bool
    condition2_holds: bool
    bound_ceiling: Optional[int] = None
    bound_approx: Optional[Fraction] = None
    gap_values: Optional[Tuple[Fraction, ...]] = None
    gap_condition_holds: Optional[bool] = None
    subset_sum_count: Optional[int] = None
    subset_sums_all_distinct: Optional[bool] = None

    @property
    def conditions_hold(self) -> bool:
        return self.condition1_holds and self.condition2_holds

    @property
    def gap_anomaly(self) -> Optional[bool]:
        if self.gap_condition_holds is None or self.subset_sums_all_distinct is None:
            return None
        return self.gap_condition_holds and not self.subset_sums_all_distinct


def make_certificate(vp: ValuedPoly,
                     D: int,
                     constant: int = 28,
                     subsequence: Optional[Sequence[int]] = None,
                     subset_budget: int = DEFAULT_SUBSET_BUDGET) -> LemmaCertificate:
    """Check the growth conditions of a polynomial's root profile and bundle the verdicts.

    ``subsequence`` defaults to the full ordered root list. The gap sequence
    under test is the list of hull-corner coefficient valuations, which is
    strictly decreasing whenever the profile satisfies the conditions.
    """
    from .polygon import root_valuation_profile

    profile = root_valuation_profile(vp)
    if subsequence is None:
        subsequence = tuple(range(profile.total_multiplicity))
    else:
        subsequence = tuple(int(i) for i in subsequence)
    cond1, cond2 = check_lemma_conditions(profile, subsequence)
    d = len(subsequence)

    bound_ceiling = bound_approx = None
    if cond1 and cond2:
        bound = lemma_bound(d, D, constant)
        bound_ceiling = bound.ceiling
        bound_approx = bound.approx()

    gap_values = gap_cond = count = distinct = None
    corner_vals = [v for _, v in lower_hull(vp).vertices]
    if all(a > b for a, b in zip(corner_vals, corner_vals[1:])):
        gap_values = tuple(corner_vals)
        gap_cond = gap_condition(gap_values)
        if len(gap_values) <= subset_budget:
            count, distinct = subset_sums_distinct(gap_values, subset_budget)

    return LemmaCertificate(
        d=d, D=D, constant=constant,
        subsequence_indices=subsequence,
        condition1_holds=cond1, condition2_holds=cond2,
        bound_ceiling=bound_ceiling, bound_approx=bound_approx,
        gap_values=gap_values, gap_condition_holds=gap_cond,
        subset_sum_count=count, subset_sums_all_distinct=distinct,
    )
