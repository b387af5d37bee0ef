from fractions import Fraction

import pytest

from newtonbench.families import (
    FamilyId,
    RepresentationInfeasible,
    gen_exact,
    gen_valued,
    parse_family,
    x_points,
)
from newtonbench.polygon import root_valuation_profile
from newtonbench.polynomials import (
    PolynomialError,
    ValuedPoly,
    coefficient_valuations,
    from_roots,
)


def test_parse_family():
    assert parse_family("q:5") == FamilyId("q", 5)
    assert parse_family("P:3") == FamilyId("p", 3)
    assert str(parse_family("x:2")) == "x:2"
    for ok in ("q:3000", "p:400", "x:60"):
        parse_family(ok)
    for bad in ("y:2", "q", "q:0", "q:-1", "q:one", "q:8193", "p:407", "x:407"):
        with pytest.raises(PolynomialError):
            parse_family(bad)


def test_gen_valued_examples():
    assert gen_valued(FamilyId("q", 2)) == ValuedPoly(2, 2, [(0, 1), (1, 2), (2, 4)])
    assert gen_valued(FamilyId("p", 2)) == ValuedPoly(2, 2, [(0, 16), (1, 4), (2, 1)])
    x1 = gen_valued(FamilyId("x", 1))
    assert x1 == ValuedPoly(2, 2, [(0, 3), (1, 1), (2, 0)])
    assert root_valuation_profile(x1).entries == ((2, 1), (1, 1))


def test_gen_exact_examples():
    assert [int(c) for c in gen_exact(FamilyId("q", 2)).coeffs] == [2, 4, 16]
    assert [int(c) for c in gen_exact(FamilyId("p", 1)).coeffs] == [4, 2]
    assert gen_exact(FamilyId("x", 1)) == from_roots([(2, 1), (4, 1)], 1)


def test_gen_exact_budget():
    with pytest.raises(RepresentationInfeasible) as err:
        gen_exact(FamilyId("p", 6))
    assert err.value.required_log2_bits == 36
    assert "2^36" in str(err.value)
    gen_exact(FamilyId("p", 4))  # d = 4 fits the default budget
    with pytest.raises(RepresentationInfeasible):
        gen_exact(FamilyId("p", 5))
    gen_exact(FamilyId("q", 20))
    with pytest.raises(RepresentationInfeasible):
        gen_exact(FamilyId("q", 21))
    gen_exact(FamilyId("q", 21), bit_budget=1 << 21)  # budget is configurable


def test_x_points():
    assert x_points(1) == [2, 4]
    assert x_points(2) == [2, 16, 65536]
    with pytest.raises(RepresentationInfeasible):
        x_points(40)


def test_exact_matches_valued():
    for fid in [FamilyId(k, d) for k in ("q", "p", "x") for d in (1, 2, 3, 4)]:
        assert coefficient_valuations(gen_exact(fid), 2) == gen_valued(fid)
    # q stays exactly representable much longer; the valuation view is lossless
    for d in (10, 16):
        fid = FamilyId("q", d)
        assert coefficient_valuations(gen_exact(fid), 2) == gen_valued(fid)


def test_q_family_min_root_valuation():
    for d in range(1, 17):
        prof = root_valuation_profile(gen_valued(FamilyId("q", d)))
        assert prof.min_valuation() == -(1 << (d - 1))


def test_p_family_profile():
    for d in range(1, 13):
        prof = root_valuation_profile(gen_valued(FamilyId("p", d)))
        expected = [(Fraction((1 << (d * (d - i))) * ((1 << d) - 1)), 1)
                    for i in range(1, d + 1)]
        assert list(prof.entries) == expected
        vals = [v for v, _ in prof.entries]
        assert all(a / b == 1 << d for a, b in zip(vals, vals[1:]))


def test_x_family_profile():
    for d in range(1, 13):
        prof = root_valuation_profile(gen_valued(FamilyId("x", d)))
        assert [v for v, _ in prof.entries] == [Fraction(1 << (d * i))
                                                for i in range(d, -1, -1)]
        vals = [v for v, _ in prof.entries]
        assert all(a / b == 1 << d for a, b in zip(vals, vals[1:]))
