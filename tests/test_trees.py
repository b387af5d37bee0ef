import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from newtonbench import trees
from newtonbench.polynomials import DensePoly, squarefree_part
from newtonbench.trees import (
    Branch,
    Compute,
    Const,
    Input,
    Leaf,
    TreeError,
    accept_set,
    accepts,
    decides,
    depth,
    format_tree,
    multiplicative_depth,
    parse_tree,
    trace_generic_path,
    validate,
)


def P(*coeffs):
    return DensePoly(coeffs)


def x2_minus_x_tree():
    # n0=input, n1 = n0*n0, n2 = n1-n0, branch n2 ? accept : reject
    return Input(Compute("mul", 0, 0,
                         Compute("sub", 1, 0,
                                 Branch(2, Leaf(True), Leaf(False)))))


def test_trace_examples():
    pp = trace_generic_path(x2_minus_x_tree())
    assert pp.poly == P(0, -1, 1)
    assert pp.depth_total == 3
    assert pp.depth_mult == 1

    no_branch = Input(Compute("add", 0, 0, Leaf(False)))
    pp = trace_generic_path(no_branch)
    assert pp.poly == DensePoly.one()
    assert pp.tests == ()

    # test x = 0, then on the nonzero side test x - 1 = 0
    tree = Input(Const(1, Branch(0, Leaf(False),
                                 Compute("sub", 0, 1,
                                         Branch(2, Leaf(True), Leaf(False))))))
    pp = trace_generic_path(tree)
    assert pp.poly == P(0, 1) * P(-1, 1)
    assert len(pp.tests) == 2


def test_trace_zero_test_routes_to_zero_child():
    # n1 = n0 - n0 is identically zero: generic input takes the zero child,
    # and the test contributes factor 1.
    tree = Input(Compute("sub", 0, 0,
                         Branch(1, Branch(0, Leaf(True), Leaf(False)), Leaf(False))))
    pp = trace_generic_path(tree)
    assert pp.poly == P(0, 1)
    assert len(pp.tests) == 2


def test_trace_malformed_division():
    tree = Input(Compute("sub", 0, 0,
                         Compute("div", 0, 1, Leaf(True))))
    with pytest.raises(TreeError):
        trace_generic_path(tree)


def test_depth_measures():
    t = x2_minus_x_tree()
    assert depth(t) == 3
    assert multiplicative_depth(t) == 1
    assert depth(Leaf(True)) == 0
    assert depth(Input(Const(1, Leaf(True)))) == 0  # input/const are free
    lop = Input(Compute("mul", 0, 0, Compute("mul", 1, 1, Leaf(False))))
    assert multiplicative_depth(lop) == 2
    # the deeper side of a branch need not be the more multiplicative one
    split = Input(Branch(0, Compute("add", 0, 0, Compute("add", 0, 0, Leaf(True))),
                         Compute("mul", 0, 0, Leaf(False))))
    assert depth(split) == 3
    assert multiplicative_depth(split) == 1


def test_depth_rejects_a_non_node():
    for measure in (depth, multiplicative_depth):
        with pytest.raises(TreeError):
            measure("junk")


def test_depth_rejects_an_out_of_range_reference():
    for measure in (depth, multiplicative_depth):
        with pytest.raises(TreeError):
            measure(Input(Compute("mul", 0, 3, Leaf(True))))
        with pytest.raises(TreeError):
            measure(Input(Branch(1, Leaf(True), Leaf(False))))


def test_trees_imports_nothing_from_the_enumerator_or_integer_kernel():
    """accepts and accept_set are the oracle for the enumerator's verdicts."""
    tree_module = ast.parse(Path(trees.__file__).read_text())
    for node in ast.walk(tree_module):
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith(("enumeration", "polynomials"))
                           for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").endswith("enumeration")
            names = [a.name for a in node.names]
            assert "enumeration" not in names and "polynomials" not in names
            if (node.module or "").endswith("polynomials"):
                assert not any(name.startswith("z") for name in names), names


def test_accept_set_examples():
    acc = accept_set(x2_minus_x_tree())
    assert acc.accepted_points == P(0, -1, 1)
    assert not acc.generic

    cofinite = Input(Branch(0, Leaf(False), Leaf(True)))
    acc = accept_set(cofinite)
    assert acc.generic
    assert acc.accepted_points == DensePoly.one()

    # branch (x-1)=0 -> branch on constant 0 (always zero) -> accept
    tree = Input(Const(1, Const(0,
                 Compute("sub", 0, 1,
                         Branch(3, Branch(2, Leaf(True), Leaf(False)),
                                Leaf(False))))))
    acc = accept_set(tree)
    assert acc.accepted_points == P(-1, 1)
    assert not acc.generic


def test_accept_set_exclusion_kills_point():
    # accept iff x(x-1) = 0 AND x != 0: accepted set is {1}
    tree = Input(Compute("mul", 0, 0,
                         Compute("sub", 1, 0,
                                 Branch(0, Leaf(False),
                                        Branch(2, Leaf(True), Leaf(False))))))
    acc = accept_set(tree)
    assert acc.accepted_points == P(-1, 1)


def test_decides_examples():
    assert decides(x2_minus_x_tree(), P(0, -1, 1))
    assert not decides(x2_minus_x_tree(), P(2, 4, 16))
    assert not decides(Input(Leaf(False)), P(0, -1, 1))
    assert decides(Input(Leaf(False)), P(5))  # rootless target
    assert not decides(Input(Branch(0, Leaf(False), Leaf(True))), P(0, 1))
    with pytest.raises(TreeError):
        decides(Leaf(True), DensePoly.zero())


def test_decides_respects_multiplicity_collapse():
    # (x^2 - x)^2 has the same roots; the squarefree comparison accepts it
    assert decides(x2_minus_x_tree(), P(0, -1, 1) * P(0, -1, 1))


def test_accepts_runs():
    t = x2_minus_x_tree()
    assert accepts(t, 0) and accepts(t, 1)
    assert not accepts(t, 2) and not accepts(t, Fraction(1, 2))


def test_division_semantics():
    # y = 1 / x; branch y - 1 = 0 -> accept: accepts exactly x = 1, rejects x = 0
    tree = Input(Const(1, Compute("div", 1, 0,
                                  Compute("sub", 2, 1,
                                          Branch(3, Leaf(True), Leaf(False))))))
    assert accepts(tree, 1)
    assert not accepts(tree, 0)  # division by zero: outside the path domain
    assert not accepts(tree, 2)
    acc = accept_set(tree)
    assert acc.accepted_points == P(-1, 1)
    assert decides(tree, P(-1, 1))

    # branch x = 0 -> (zero side) divide by x: dividing by zero on the whole
    # domain of that path; nothing is accepted there
    tree = Input(Const(1, Branch(0,
                                 Compute("div", 1, 0, Leaf(True)),
                                 Leaf(False))))
    acc = accept_set(tree)
    assert acc.accepted_points == DensePoly.one()
    assert not accepts(tree, 0)


def test_validate_errors():
    with pytest.raises(TreeError):
        validate(Input(Compute("mul", 0, 1, Leaf(True))))  # rhs not defined yet
    with pytest.raises(TreeError):
        validate(Input(Branch(1, Leaf(True), Leaf(False))))
    with pytest.raises(TreeError):
        validate(Input(Compute("pow", 0, 0, Leaf(True))))
    validate(Input(Const(1, Leaf(True))), constants=[0, 1])
    with pytest.raises(TreeError):
        validate(Input(Const(2, Leaf(True))), constants=[0, 1])


def test_format_parse_roundtrip_flat():
    t = x2_minus_x_tree()
    text = format_tree(t)
    assert text == ("n0 = input\n"
                    "n1 = mul n0 n0\n"
                    "n2 = sub n1 n0\n"
                    "branch n2 ? L:accept R:reject\n")
    assert parse_tree(text) == t


def test_format_parse_roundtrip_nested():
    tree = Input(Const(Fraction(3, 4),
                 Branch(0,
                        Leaf(False),
                        Compute("sub", 0, 1,
                                Branch(2,
                                       Compute("add", 0, 0,
                                               Branch(3, Leaf(True), Leaf(False))),
                                       Leaf(False))))))
    text = format_tree(tree)
    assert parse_tree(text) == tree
    # each line is one node, nested lines carry their branch path
    assert any(line.startswith("R: ") for line in text.splitlines())
    assert any(line.startswith("R.L: ") for line in text.splitlines())


def test_parse_rejects_garbage():
    with pytest.raises(TreeError):
        parse_tree("n0 = input\n")  # no leaf
    with pytest.raises(TreeError):
        parse_tree("n1 = input\naccept\n")  # wrong numbering
    with pytest.raises(TreeError):
        parse_tree("n0 = input\nbranch n0 ? L:accept\n")  # missing child
    for text in ("nx = input\naccept\n",  # malformed name
                 "n0 = input\nn1 = add n0 nq\naccept\n",  # malformed reference
                 "n0 = input\nn1 = const 1/x\naccept\n",
                 "n0 = input\nn1 =\naccept\n",
                 "n0 = input\nbranch ? L:accept R:reject\n",
                 "n0 = input\naccept\nreject\n",  # line after the block's leaf
                 "n0 = input\nbranch n0 ? L:accept R:reject\nL: accept\n",  # unreached
                 "n0 = input\nbranch n0 ? L:... R:reject\nL: accept\nQ.R: n1 = input\n",
                 "n0 = input\nbranch n0 ? L:accept L:reject R:accept\n"):  # repeated tag
        with pytest.raises(TreeError):
            parse_tree(text)


def _random_tree(rng, nvals, budget, constants, div_ok):
    roll = rng.random()
    if budget == 0 or (nvals > 0 and roll < 0.2):
        return Leaf(rng.random() < 0.5)
    if nvals == 0:
        return Input(_random_tree(rng, 1, budget, constants, div_ok))
    if roll < 0.35:
        return Const(rng.choice(constants),
                     _random_tree(rng, nvals + 1, budget, constants, div_ok))
    if roll < 0.75:
        ops = ["add", "sub", "mul"] + (["div"] if div_ok else [])
        return Compute(rng.choice(ops), rng.randrange(nvals), rng.randrange(nvals),
                       _random_tree(rng, nvals + 1, budget - 1, constants, div_ok))
    return Branch(rng.randrange(nvals),
                  _random_tree(rng, nvals, budget - 1, constants, div_ok),
                  _random_tree(rng, nvals, budget - 1, constants, div_ok))


def _membership(acc, x):
    for cond in acc.paths:
        if cond.cofinite:
            if cond.exclusions.evaluate(x) != 0:
                return True
        elif (cond.equations.degree > 0 and cond.equations.evaluate(x) == 0
              and cond.exclusions.evaluate(x) != 0):
            return True
    return False


@pytest.mark.parametrize("div_ok", [False, True])
def test_accept_set_agrees_with_execution(div_ok):
    """accept_set is checked pointwise against running the tree on rationals."""
    rng = random.Random(314 + div_ok)
    constants = [Fraction(0), Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2)]
    points = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    checked = 0
    while checked < 100:
        tree = _random_tree(rng, 0, 5, constants, div_ok)
        try:
            acc = accept_set(tree)
        except TreeError:
            continue  # identically-zero divisor: malformed by contract
        checked += 1
        roots = set()
        for cond in acc.paths:
            if cond.equations.degree > 0:
                for pt in points:
                    if cond.equations.evaluate(pt) == 0:
                        roots.add(pt)
        for pt in list(roots) + rng.sample(points, 12):
            assert accepts(tree, pt) == _membership(acc, pt), format_tree(tree)


def test_generic_path_divides_accept_equations():
    # soundness link: on trees that decide a squarefree target, the target
    # divides the generic-path polynomial (unless g collapses to 1)
    t = x2_minus_x_tree()
    g = trace_generic_path(t).poly
    assert (g % squarefree_part(P(0, -1, 1))).is_zero


def test_path_polynomial_degree_bound_random():
    # deg g <= 2^(mult_depth + 1) * (number of tests) on every traced path
    rng = random.Random(2718)
    constants = [Fraction(0), Fraction(1), Fraction(2)]
    checked = 0
    while checked < 150:
        tree = _random_tree(rng, 0, 6, constants, div_ok=False)
        pp = trace_generic_path(tree)
        checked += 1
        assert pp.poly.degree <= 2 ** (pp.depth_mult + 1) * len(pp.tests)
        assert pp.depth_total <= depth(tree)
        assert pp.depth_mult <= multiplicative_depth(tree)


def _rational_roots(poly):
    """Rational-root-theorem search; exact, independent of any gcd machinery."""
    if poly.degree < 1:
        return set()
    scale = 1
    for c in poly.coeffs:
        scale = scale * c.denominator // _gcd_int(scale, c.denominator)
    ints = [int(c * scale) for c in poly.coeffs]
    lead, const = ints[-1], next(c for c in ints if c) if any(ints) else 0
    roots = set()
    if poly.evaluate(0) == 0:
        roots.add(Fraction(0))
    const = next((c for c in ints if c), None)
    if const is None:
        return roots
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if poly.evaluate(cand) == 0:
                    roots.add(cand)
    return roots


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return a


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0] if n else []
    return out


def test_accept_set_roots_are_accepted_points():
    # every rational root of the accept-set polynomial really is accepted,
    # and sampled non-roots are rejected unless a cofinite path covers them
    rng = random.Random(1618)
    constants = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    checked = 0
    while checked < 100:
        tree = _random_tree(rng, 0, 5, constants, div_ok=False)
        acc = accept_set(tree)
        if acc.accepted_points.degree > 6:
            continue
        checked += 1
        for root in _rational_roots(acc.accepted_points):
            assert accepts(tree, root)
        for _ in range(50):
            pt = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            if acc.accepted_points.evaluate(pt) != 0:
                assert accepts(tree, pt) == (acc.generic
                                             and _membership(acc, pt))
