import random
from fractions import Fraction
from itertools import combinations

import pytest

from newtonbench.certificates import (
    CertificateError,
    GapSequence,
    check_lemma_conditions,
    gap_condition,
    lemma_bound,
    make_certificate,
    mu_lower_count,
    nonuniform_threshold,
    nonuniform_threshold_exceeded,
    subset_sums_distinct,
    uniform_threshold,
    uniform_threshold_exceeded,
)
from newtonbench.families import FamilyId, gen_valued
from newtonbench.polygon import RootProfile, root_valuation_profile
from newtonbench.polynomials import ValuedPoly


def brute_subset_sums(values):
    """Independent oracle: enumerate subsets via combinations."""
    sums = set()
    for r in range(len(values) + 1):
        for combo in combinations(values, r):
            sums.add(sum(combo, Fraction(0)))
    return sums


def test_lemma_conditions_p_family():
    for d in range(1, 13):
        prof = root_valuation_profile(gen_valued(FamilyId("p", d)))
        c1, c2 = check_lemma_conditions(prof, range(d))
        assert c1 and c2


def test_lemma_conditions_counterexamples():
    two_at_one = RootProfile(((Fraction(1), 2),), 0)
    c1, c2 = check_lemma_conditions(two_at_one, [0, 1])
    assert c1 and not c2  # 1 >= 2*1*1 fails

    for d in (2, 5, 9):
        prof = root_valuation_profile(gen_valued(FamilyId("q", d)))
        c1, _c2 = check_lemma_conditions(prof, range(d))
        assert not c1  # all q-family root valuations are negative


def test_lemma_conditions_contract():
    prof = RootProfile(((Fraction(4), 1), (Fraction(1), 1)), 0)
    with pytest.raises(CertificateError):
        check_lemma_conditions(prof, [])
    with pytest.raises(CertificateError):
        check_lemma_conditions(prof, [0, 2])
    with pytest.raises(CertificateError):
        check_lemma_conditions(prof, [1, 0])


def test_lemma_conditions_subsequence_gaps():
    # Selecting positions (0, 2) doubles the required ratio: need v0 >= 4*v2.
    prof = RootProfile(((Fraction(16), 1), (Fraction(8), 1), (Fraction(4), 1)), 0)
    c1, c2 = check_lemma_conditions(prof, [0, 2])
    assert c1 and c2
    prof = RootProfile(((Fraction(12), 1), (Fraction(8), 1), (Fraction(4), 1)), 0)
    c1, c2 = check_lemma_conditions(prof, [0, 2])
    assert c1 and not c2


def test_lemma_bound_spot_values():
    assert lemma_bound(116, 2, 28).ceiling == 2
    assert lemma_bound(88, 2, 21).ceiling == 2
    assert lemma_bound(1, 1, 28).ceiling == 1
    b = lemma_bound(116, 2, 28)
    assert not b.meets(1)
    assert b.meets(2) and b.meets(3)


def test_lemma_bound_exactness_against_rational_arithmetic():
    # D a power of two: compare the integer decision against direct fractions.
    for d in (1, 2, 7, 29, 116, 1000):
        for t in (0, 1, 2, 5):
            for c in (28, 21):
                b = lemma_bound(d, 1 << t, c)
                for L in range(1, 12):
                    assert b.meets(L) == (L * L * (c * t + 1) >= d)


def test_lemma_bound_general_D():
    # D = 3: log2 is irrational; the verdict must still be exact.
    b = lemma_bound(100, 3, 28)
    # L=1: 28*log2(3)+1 ~ 45.38 < 100 -> fails; L=2: 4*45.38 > 100 -> meets
    assert not b.meets(1)
    assert b.meets(2)
    assert b.ceiling == 2


def test_lemma_bound_monotonicity():
    for c in (28, 21):
        for D in (1, 2, 4, 16):
            ceilings = [lemma_bound(d, D, c).ceiling for d in range(1, 400, 7)]
            assert all(a <= b for a, b in zip(ceilings, ceilings[1:]))
    for d in (10, 116, 399):
        for c in (28, 21):
            by_D = [lemma_bound(d, D, c).ceiling for D in (1, 2, 4, 8, 64, 1024)]
            assert all(a >= b for a, b in zip(by_D, by_D[1:]))
    for d in (10, 116, 399):
        for D in (1, 2, 16, 1024):
            assert lemma_bound(d, D, 21).ceiling >= lemma_bound(d, D, 28).ceiling


def test_lemma_bound_validation():
    with pytest.raises(CertificateError):
        lemma_bound(0, 2)
    with pytest.raises(CertificateError):
        lemma_bound(5, 2, 27)


def test_subset_sums_examples():
    assert subset_sums_distinct([16, 4, 1]) == (8, True)
    assert brute_subset_sums([16, 4, 1]) == {0, 1, 4, 5, 16, 17, 20, 21}

    count, distinct = subset_sums_distinct([22, 13, 9, 8])
    assert not distinct
    assert count == len(brute_subset_sums([22, 13, 9, 8])) == 14
    # the collision 22 = 13 + 9 entails the second one 30 = 22 + 8 = 13 + 9 + 8

    assert subset_sums_distinct([1]) == (2, True)
    # non-integral values: 1/2 = 1/3 + 1/6 collides
    assert subset_sums_distinct([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]) == (7, False)
    assert subset_sums_distinct([Fraction(3, 4), Fraction(1, 3)]) == (4, True)


def test_subset_sums_budget():
    with pytest.raises(CertificateError):
        subset_sums_distinct(range(30, 0, -1), budget=24)


def test_subset_sums_against_oracle_random():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        vals = rng.sample(range(1, 200), n)
        count, distinct = subset_sums_distinct(vals)
        oracle = brute_subset_sums(vals)
        assert count == len(oracle)
        assert distinct == (len(oracle) == 1 << n)


def test_gap_condition_examples():
    assert gap_condition([22, 13, 9, 8])
    assert not gap_condition([9, 5, 3, 2])  # 2 < 2 fails strictness
    assert gap_condition([16, 4, 1])
    assert gap_condition([5, 1])  # vacuous below three values


def test_gap_sequence_validation():
    with pytest.raises(CertificateError):
        GapSequence([3, 3, 1])
    assert len(GapSequence([Fraction(5, 2), 1])) == 2


def test_superincreasing_implies_distinct():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(1, 16)
        vals = []
        total = 0
        for _ in range(n):
            v = total + rng.randint(1, 50)
            vals.append(v)
            total += v
        vals.reverse()  # decreasing
        count, distinct = subset_sums_distinct(vals)
        assert distinct and count == 1 << n


def test_gap_ratio_plus_spread_does_not_suffice():
    # Halving gaps plus a smallest element above the total spread still does
    # not force distinct sums; the brute-force check is what settles it.
    vals = [269, 204, 172, 156, 148, 145]
    gaps = [a - b for a, b in zip(vals, vals[1:])]
    assert all(a >= 2 * b for a, b in zip(gaps, gaps[1:]))
    assert vals[-1] > sum(gaps)
    _count, distinct = subset_sums_distinct(vals)
    assert not distinct
    assert 269 + 204 == 172 + 156 + 145

    # strictly halving gaps fare no better, and this one even satisfies the
    # strict gap condition itself
    vals = [644, 504, 436, 403, 388, 381, 379]
    gaps = [a - b for a, b in zip(vals, vals[1:])]
    assert all(a > 2 * b for a, b in zip(gaps, gaps[1:]))
    assert vals[-1] > sum(gaps)
    assert gap_condition(vals)
    _count, distinct = subset_sums_distinct(vals)
    assert not distinct
    assert 644 + 504 == 388 + 381 + 379


def test_mu_lower_count():
    assert mu_lower_count(gen_valued(FamilyId("p", 2))) == 8
    assert mu_lower_count(gen_valued(FamilyId("q", 2))) == 8
    assert mu_lower_count(ValuedPoly(2, 0, [(0, 5)])) == 2
    # zero coefficient adds the single value infinity
    assert mu_lower_count(ValuedPoly(2, 2, [(0, 1), (2, 2)])) == 5
    thirds = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    assert mu_lower_count(ValuedPoly(2, 2, list(enumerate(thirds)))) == 7
    assert mu_lower_count(ValuedPoly(2, 3, [(0, thirds[0]), (1, thirds[1]),
                                            (3, thirds[2])])) == 8
    for d in range(1, 13):
        assert mu_lower_count(gen_valued(FamilyId("p", d))) == 1 << (d + 1)
    with pytest.raises(CertificateError):
        mu_lower_count(gen_valued(FamilyId("q", 30)))


def test_thresholds():
    assert uniform_threshold(3) == 12
    assert uniform_threshold(1) == 4
    assert not uniform_threshold_exceeded(3, 11)
    assert uniform_threshold_exceeded(3, 12)
    assert nonuniform_threshold(1) == 57
    assert nonuniform_threshold(2) == 337
    assert nonuniform_threshold(1, 21) == 43
    assert nonuniform_threshold_exceeded(1, 57)
    assert not nonuniform_threshold_exceeded(1, 56)
    with pytest.raises(CertificateError):
        uniform_threshold(0)
    with pytest.raises(CertificateError):
        nonuniform_threshold(1, 29)


def test_make_certificate_p_family():
    cert = make_certificate(gen_valued(FamilyId("p", 6)), D=4, constant=28)
    assert cert.conditions_hold
    assert cert.d == 6
    assert cert.bound_ceiling == 1
    assert cert.gap_condition_holds
    assert cert.subset_sums_all_distinct
    assert cert.gap_anomaly is False


def test_make_certificate_q_family():
    cert = make_certificate(gen_valued(FamilyId("q", 4)), D=4, constant=28)
    assert not cert.condition1_holds
    assert cert.bound_ceiling is None
    assert cert.bound_approx is None


def test_bound_chain_matches_threshold():
    # Beyond the contradiction threshold, a machine of time T can no longer
    # meet the bound it would need: d > 28*T^2*(T+1) forces meets(T) False.
    for T in range(1, 7):
        threshold = nonuniform_threshold(T)
        for d in (threshold, threshold + 1, threshold + 100):
            assert nonuniform_threshold_exceeded(T, d)
            assert not lemma_bound(d, 1 << T, 28).meets(T)
        # conversely, meeting the bound keeps d at or below the threshold
        for d in range(1, threshold + 50, 7):
            if lemma_bound(d, 1 << T, 28).meets(T):
                assert d <= threshold - 1
