import json
import math
import random
from fractions import Fraction

import pytest

from newtonbench.polynomials import (
    DensePoly,
    PolynomialError,
    RootSpec,
    ValuedPoly,
    coefficient_valuations,
    divides,
    from_roots,
    poly_from_json,
    poly_to_json,
    squarefree_part,
    zadd,
    zgcd,
    zmul,
    zprimitive,
    zquo,
    zsquarefree,
    zsub,
)


def P(*coeffs):
    return DensePoly(coeffs)


def _random_poly(rng, max_deg=5, zero_ok=True):
    deg = rng.randint(-1 if zero_ok else 0, max_deg)
    if deg < 0:
        return DensePoly.zero()
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(deg)]
    coeffs.append(Fraction(rng.randint(1, 9)))
    return DensePoly(coeffs)


def test_from_roots_examples():
    p = from_roots([(2, 2), (Fraction(1, 4), 1)], 1)
    assert p == P(-1, 5, Fraction(-17, 4), 1)
    assert from_roots([(0, 1)], 1) == DensePoly.x()
    assert from_roots([], 5) == P(5)
    with pytest.raises(PolynomialError):
        from_roots([(1, 1)], 0)


def test_from_roots_recovers_roots():
    rng = random.Random(7)
    for _ in range(50):
        roots = sorted(rng.sample(range(-20, 20), rng.randint(1, 5)))
        spec = [(r, rng.randint(1, 3)) for r in roots]
        poly = from_roots(spec, Fraction(rng.randint(1, 5)))
        for r, m in spec:
            q = poly
            for _ in range(m):
                q, rem = divmod(q, P(-r, 1))
                assert rem.is_zero
            assert q.evaluate(r) != 0


def test_coefficient_valuations_examples():
    vp = coefficient_valuations(P(-1, 5, Fraction(-17, 4), 1), 2)
    assert vp.entries == ((0, 0), (1, 0), (2, -2), (3, 0))
    vp = coefficient_valuations(P(2, 4, 16), 2)
    assert vp.entries == ((0, 1), (1, 2), (2, 4))
    vp = coefficient_valuations(P(0, 0, 1), 2)
    assert vp.entries == ((2, 0),)
    assert not vp.val_at(0).is_finite
    assert not vp.val_at(1).is_finite
    with pytest.raises(PolynomialError):
        coefficient_valuations(DensePoly.zero(), 2)


def test_divides_examples():
    assert divides(P(-1, 1), P(-1, 0, 1))
    assert not divides(P(1, 2, 8), P(0, 0, 0, 1))
    assert divides(P(1, 2, 8), DensePoly.zero())
    with pytest.raises(PolynomialError):
        divides(DensePoly.zero(), P(1))


def test_divides_random():
    rng = random.Random(11)
    for _ in range(100):
        f = _random_poly(rng, 4, zero_ok=False)
        h = _random_poly(rng, 3, zero_ok=False)
        assert divides(f, f * h)
        if f.degree >= 1:
            r = _random_poly(rng, f.degree - 1, zero_ok=False)
            assert not divides(f, f * h + r)


def test_squarefree_part_examples():
    assert squarefree_part(P(1, -2, 1)) == P(-1, 1)      # (t-1)^2
    assert squarefree_part(P(-1, 0, 1)) == P(-1, 0, 1)   # already squarefree
    assert squarefree_part(P(0, 0, -4, 4)) == P(0, -1, 1)  # 4t^3-4t^2 -> t^2-t
    assert squarefree_part(P(7)) == DensePoly.one()


def test_valuation_multiplicative_at_ends():
    rng = random.Random(13)
    for _ in range(50):
        f = _random_poly(rng, 4, zero_ok=False)
        g = _random_poly(rng, 4, zero_ok=False)
        if f.evaluate(0) == 0 or g.evaluate(0) == 0:
            continue
        vf, vg, vfg = (coefficient_valuations(q, 2) for q in (f, g, f * g))
        assert vfg.val_at(0) == vf.val_at(0) + vg.val_at(0)
        assert (vfg.val_at(vfg.degree)
                == vf.val_at(vf.degree) + vg.val_at(vg.degree))


def test_divmod_identity():
    rng = random.Random(17)
    for _ in range(100):
        a = _random_poly(rng, 6)
        b = _random_poly(rng, 3, zero_ok=False)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_basic():
    a = P(-1, 1) * P(2, 1) * P(2, 1)
    b = P(2, 1) * P(5, 1)
    assert a.gcd(b) == P(2, 1)
    assert DensePoly.zero().gcd(a) == a.monic()
    assert P(4).gcd(P(0)) == DensePoly.one()


def test_pow_and_degree():
    x = DensePoly.x()
    assert (x + P(1)) ** 3 == P(1, 3, 3, 1)
    assert DensePoly.zero().degree == -1
    assert P(3).degree == 0


def test_rootspec_validation():
    with pytest.raises(PolynomialError):
        RootSpec([(1, 0)])
    assert RootSpec([(1, 2), (3, 1)]).degree == 3


def test_valuedpoly_validation():
    with pytest.raises(PolynomialError):
        ValuedPoly(2, 2, [(0, 1)])  # leading entry missing
    with pytest.raises(PolynomialError):
        ValuedPoly(2, 2, [(0, 1), (0, 2), (2, 1)])  # duplicate index
    with pytest.raises(PolynomialError):
        ValuedPoly(2, 2, [(3, 1), (2, 1)])  # index beyond degree
    vp = ValuedPoly(2, 2, [(0, 1), (2, 4)])
    assert vp.has_zero_coefficients
    assert not ValuedPoly(2, 1, [(0, 1), (1, 1)]).has_zero_coefficients


def test_mixed_prime_equality():
    a = ValuedPoly(2, 1, [(0, 1), (1, 1)])
    b = ValuedPoly(3, 1, [(0, 1), (1, 1)])
    assert a != b


def test_json_roundtrip():
    dense = P(2, 4, 16)
    blob = json.dumps(poly_to_json(dense))
    assert poly_from_json(json.loads(blob)) == dense
    assert poly_to_json(dense) == {"repr": "dense", "coeffs": ["2", "4", "16"]}

    valued = ValuedPoly(2, 2, [(0, 1), (1, 2), (2, 4)])
    blob = json.dumps(poly_to_json(valued))
    assert poly_from_json(json.loads(blob)) == valued
    assert poly_to_json(valued) == {
        "repr": "valued", "prime": 2, "degree": 2,
        "entries": [[0, "1"], [1, "2"], [2, "4"]],
    }
    with pytest.raises(PolynomialError):
        poly_from_json({"repr": "sparse"})


def _zrandom(rng, max_deg=3):
    deg = rng.randint(0, max_deg)
    return tuple(rng.randint(-6, 6) for _ in range(deg)) + (rng.choice((-3, -1, 1, 2, 5)),)


def _zpair(rng):
    """Two integer polynomials sharing a random factor, with repeated factors."""
    h = _zrandom(rng, 2)
    f = zmul(_zrandom(rng), _zrandom(rng, 1))
    g = zmul(_zrandom(rng), h) if rng.random() < 0.5 else _zrandom(rng)
    return zmul(zmul(f, h), h), zmul(g, rng.choice(((1,), (-4,), (6,))))


def _primitive_of(poly: DensePoly) -> tuple:
    m = math.lcm(*(c.denominator for c in poly.coeffs))
    return zprimitive(tuple(int(c * m) for c in poly.coeffs))


def test_integer_kernel_against_densepoly():
    rng = random.Random(11)
    for _ in range(300):
        a, b = _zpair(rng)
        A, B = DensePoly(a), DensePoly(b)
        assert DensePoly(zadd(a, b)) == A + B
        assert DensePoly(zsub(a, b)) == A - B
        assert DensePoly(zmul(a, b)) == A * B
        g = zgcd(a, b)
        assert g == _primitive_of(A.gcd(B)) and g[-1] > 0
        assert zgcd(b, a) == g
        assert zsquarefree(a) == _primitive_of(squarefree_part(A))
        assert zquo(zmul(a, b), b) == a
        assert DensePoly(zquo(a, g)) == A // DensePoly(g)
    assert zgcd((), ()) == ()
    assert zgcd((), (0, -2)) == (0, 1)
    assert zsquarefree((5,)) == (1,)
    with pytest.raises(PolynomialError):
        zsquarefree(())
    with pytest.raises(PolynomialError):
        zquo((1, 0, 1), (1, 1))  # remainder 2
    with pytest.raises(PolynomialError):
        zquo((1, 1), (0, 2))  # exact over Q only
    with pytest.raises(ZeroDivisionError):
        zquo((1, 1), ())


def test_integer_kernel_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)), x, domain="ZZ")

    def from_sympy(p):
        return tuple(int(c) for c in reversed(p.all_coeffs()))

    rng = random.Random(12)
    for _ in range(150):
        a, b = _zpair(rng)
        g = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
        assert zgcd(a, b) == zprimitive(g)
        assert zsquarefree(a) == zprimitive(from_sympy(sympy.sqf_part(to_sympy(a))))
        q, r = sympy.div(to_sympy(a), to_sympy(g))
        assert r.is_zero and zquo(a, g) == from_sympy(q)
