"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every assertion is exact (zero tolerance); the per-criterion wall-clock
budgets from the build contract are asserted too.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from newtonbench.certificates import (
    check_lemma_conditions,
    gap_condition,
    lemma_bound,
    nonuniform_threshold,
    nonuniform_threshold_exceeded,
    subset_sums_distinct,
    uniform_threshold,
    uniform_threshold_exceeded,
)
from newtonbench.enumeration import enumerate_and_refute, generic_path_classes
from newtonbench.families import FamilyId, gen_exact, gen_valued
from newtonbench.polygon import RootProfile, root_valuation_profile
from newtonbench.polynomials import (
    DensePoly,
    RootSpec,
    coefficient_valuations,
    divides,
    from_roots,
    squarefree_part,
)
from newtonbench.trees import decides, parse_tree, trace_generic_path
from newtonbench.valuation import val_p


class _Criterion:
    def __init__(self, number, name, budget_seconds):
        self.number = number
        self.name = name
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} took {elapsed:.2f}s, budget {self.budget}s")
        return False


def test_criterion_1_proposition_oracle_equivalence():
    """1000 random root specs: polygon-derived profile == prescribed multiset."""
    with _Criterion(1, "polygon/root-profile round trip", 10.0):
        rng = random.Random(1000003)
        for _ in range(1000):
            entries = []
            total = 0
            max_deg = rng.randint(1, 10)
            while total < max_deg:
                mult = rng.randint(1, min(3, max_deg - total))
                if rng.random() < 0.08:
                    root = Fraction(0)
                else:
                    a = rng.randint(-20, 20)
                    u = rng.choice([1, 3, 5, 7, 11, 15, 99])
                    root = rng.choice([1, -1]) * Fraction(2) ** a * u
                entries.append((root, mult))
                total += mult
            spec = RootSpec(entries)

            expected_by_val = {}
            zero_mult = 0
            for root, mult in spec.entries:
                if root == 0:
                    zero_mult += mult
                else:
                    v = val_p(root, 2).value
                    expected_by_val[v] = expected_by_val.get(v, 0) + mult
            expected = RootProfile(
                tuple(sorted(expected_by_val.items(), reverse=True)), zero_mult)

            poly = from_roots(spec, 1)
            got = root_valuation_profile(coefficient_valuations(poly, 2))
            assert got == expected, (spec, got, expected)


def test_criterion_2_q_family_min_valuation():
    """Minimal root valuation of the q family is exactly -2^(d-1) for d in [1,16]."""
    with _Criterion(2, "q-family minimum root valuation", 1.0):
        for d in range(1, 17):
            prof = root_valuation_profile(gen_valued(FamilyId("q", d)))
            assert prof.min_valuation() == -(1 << (d - 1))


def test_criterion_3_p_family_profile_and_ratio():
    """p-family profile is 2^(d(d-i)) * (2^d - 1) with consecutive ratio 2^d."""
    with _Criterion(3, "p-family profile and ratio", 1.0):
        for d in range(1, 13):
            prof = root_valuation_profile(gen_valued(FamilyId("p", d)))
            expected = [(Fraction((1 << (d * (d - i))) * ((1 << d) - 1)), 1)
                        for i in range(1, d + 1)]
            assert list(prof.entries) == expected
            vals = [v for v, _ in prof.entries]
            for a, b in zip(vals, vals[1:]):
                assert a / b == 1 << d


def test_criterion_4_lemma_certificate_on_p_family():
    """Growth conditions hold on the p family; the bound is exact and monotone."""
    with _Criterion(4, "lower-bound certificate for the p family", 1.0):
        for d in range(2, 13):
            prof = root_valuation_profile(gen_valued(FamilyId("p", d)))
            c1, c2 = check_lemma_conditions(prof, range(d))
            assert c1 and c2

        assert lemma_bound(116, 2, 28).ceiling == 2
        assert lemma_bound(88, 2, 21).ceiling == 2

        for constant in (28, 21):
            for D in (1, 2, 4, 256):
                ceilings = [lemma_bound(d, D, constant).ceiling
                            for d in range(1, 300, 3)]
                assert all(a <= b for a, b in zip(ceilings, ceilings[1:]))
        for d in (7, 116, 299):
            for constant in (28, 21):
                by_D = [lemma_bound(d, D, constant).ceiling
                        for D in (1, 2, 8, 64, 4096)]
                assert all(a >= b for a, b in zip(by_D, by_D[1:]))
            for D in (1, 2, 64):
                assert (lemma_bound(d, D, 21).ceiling
                        >= lemma_bound(d, D, 28).ceiling)


def test_criterion_5_threshold_formulas():
    """Threshold formulas match direct evaluation of the proof inequalities."""
    with _Criterion(5, "uniform/nonuniform thresholds", 1.0):
        for T in range(1, 11):
            assert uniform_threshold(T) == T * T + 3
            assert nonuniform_threshold(T) == 28 * T * T * (T + 1) + 1
            assert nonuniform_threshold(T, 21) == 21 * T * T * (T + 1) + 1
            # cross-check: the formula is the least d passing the inequality
            d_min = next(d for d in range(1, uniform_threshold(T) + 1)
                         if uniform_threshold_exceeded(T, d))
            assert d_min == uniform_threshold(T)
            assert not uniform_threshold_exceeded(T, d_min - 1)
            d_min = next(d for d in range(1, nonuniform_threshold(T) + 1)
                         if nonuniform_threshold_exceeded(T, d))
            assert d_min == nonuniform_threshold(T)
            assert not nonuniform_threshold_exceeded(T, d_min - 1)


def test_criterion_6_subset_sum_suite():
    """Corner valuations of p^2 give 8 distinct sums; (22,13,9,8) collides
    even though the gap condition holds (the documented counting gap)."""
    with _Criterion(6, "subset-sum suite", 1.0):
        assert subset_sums_distinct([16, 4, 1]) == (8, True)

        values = [22, 13, 9, 8]
        oracle = set()
        for r in range(len(values) + 1):
            for combo in combinations(values, r):
                oracle.add(sum(combo))
        count, distinct = subset_sums_distinct(values)
        assert gap_condition(values)
        assert not distinct
        assert count == len(oracle)
        # 16 subsets, two coincidences: 22 = 13+9 and 30 = 22+8 = 13+9+8
        assert count == 14
        assert 22 in oracle and 13 + 9 == 22
        assert len(oracle) < 15  # one collision forces the second


def test_criterion_7_generic_path_invariants():
    """All depth-4 generic paths: deg g <= 2^(T^2), integer coefficients,
    2-adic valuation in [0, 2^(T^2)]."""
    with _Criterion(7, "generic-path degree/valuation bounds", 60.0):
        classes = generic_path_classes(4, constants=(0, 1))
        assert len(classes) > 100  # sanity: the sweep actually enumerated
        for pc in classes:
            t = pc.min_depth
            bound = 2 ** (t * t)
            assert pc.poly.degree <= bound
            for c in pc.poly.coeffs:
                assert c.denominator == 1
                if c != 0:
                    v2 = val_p(c, 2).value
                    assert 0 <= v2 <= bound


def test_criterion_8_refutation_with_controls():
    """Positive controls decided within depth 4; q^2 refuted at depth 3 with
    every generic path failing divisibility; worker-count independent."""
    with _Criterion(8, "exhaustive refutation with controls", 300.0):
        for coeffs in ((0, -1, 1), (-2, 0, 1)):  # x^2 - x and x^2 - 2
            target = DensePoly(coeffs)
            report = enumerate_and_refute(target, 4)
            assert report.decided and not report.inconclusive
            tree = parse_tree(report.witness)
            assert report.witness_depth <= 4
            assert decides(tree, target)
            g = trace_generic_path(tree).poly
            assert divides(squarefree_part(target), g)

        q2 = gen_exact(FamilyId("q", 2))
        report = enumerate_and_refute(q2, 3)
        assert report.refuted and not report.decided
        assert not report.inconclusive
        assert report.canonical_trees > 0
        assert report.all_generic_paths_fail_divisibility
        assert report.divisibility_failures == report.generic_path_classes

        blobs = [json.dumps(enumerate_and_refute(q2, 3).to_json(), sort_keys=True)
                 for _ in range(2)]
        assert blobs[0] == blobs[1]
