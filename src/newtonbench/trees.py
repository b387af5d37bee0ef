"""Algebraic computation trees over one input, with exact decision semantics.

A tree is a chain of value statements (input, constants, arithmetic on
earlier values) interrupted by zero-test branches and ending in
accept/reject leaves. Values are referenced by their position in the chain
along the current path (single assignment per path). Depth counts compute
and branch nodes only; input/constant statements are free.

Semantics are exact over Q[x] (or Q(x) with division enabled): the generic
path is the branch sequence a generic complex input follows, and the set a
tree accepts is worked out per path by gcd/squarefree arithmetic, never by
numeric root finding.

One structural walk (``_shape``) checks every path and gives both depths.
One symbolic walk over Q(x) (``_paths``) takes the sides of each zero test
that a branch rule names: the generic side for ``trace_generic_path``, both
for ``accept_set``. ``accepts`` stays a separate ``Fraction`` interpreter,
the reference that tests compare ``accept_set`` against and the benchmark's
oracle runs witnesses on; so this module imports nothing from
``enumeration`` or the integer kernel of ``polynomials``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from .polynomials import DensePoly, squarefree_part
from .valuation import Rational, ValuationError, format_rational, parse_rational

OPS = ("add", "sub", "mul", "div")
DEFAULT_OPS = ("add", "sub", "mul")
DEFAULT_CONSTANTS = (0, 1)


class TreeError(ValueError):
    pass


@dataclass(frozen=True)
class Leaf:
    accept: bool


@dataclass(frozen=True)
class Input:
    child: "Node"


@dataclass(frozen=True)
class Const:
    value: Fraction
    child: "Node"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Compute:
    op: str
    lhs: int
    rhs: int
    child: "Node"


@dataclass(frozen=True)
class Branch:
    test: int
    zero: "Node"
    nonzero: "Node"


Node = Union[Leaf, Input, Const, Compute, Branch]


_MULTIPLICATIVE = ("mul", "div")


def _shape(tree: Node, allowed: Optional[Set[Fraction]] = None) -> Tuple[int, int]:
    """The one structural walk: check every path, return (depth, mult. depth).

    Raises TreeError on a non-node, an unknown op, a reference to a value
    not yet defined on the path, or a constant outside ``allowed``.
    """

    def walk(node: Node, nvals: int) -> Tuple[int, int]:
        if isinstance(node, Leaf):
            return 0, 0
        if isinstance(node, Input):
            return walk(node.child, nvals + 1)
        if isinstance(node, Const):
            if allowed is not None and node.value not in allowed:
                raise TreeError(f"constant {node.value} outside the allowed set")
            return walk(node.child, nvals + 1)
        if isinstance(node, Compute):
            if node.op not in OPS:
                raise TreeError(f"unknown op {node.op!r}")
            if not (0 <= node.lhs < nvals and 0 <= node.rhs < nvals):
                raise TreeError(f"operand reference out of range at value {nvals}")
            d, m = walk(node.child, nvals + 1)
            return d + 1, m + (node.op in _MULTIPLICATIVE)
        if isinstance(node, Branch):
            if not 0 <= node.test < nvals:
                raise TreeError("branch test reference out of range")
            (d0, m0), (d1, m1) = walk(node.zero, nvals), walk(node.nonzero, nvals)
            return 1 + max(d0, d1), max(m0, m1)
        raise TreeError(f"not a tree node: {node!r}")

    return walk(tree, 0)


def validate(tree: Node, constants: Optional[Iterable[Rational]] = None) -> None:
    """Check single-assignment references and operator names along every path.

    ``constants`` optionally restricts the constant pool (the enumerator uses
    {0, 1}); None allows any rational constant.
    """
    _shape(tree, None if constants is None else {Fraction(c) for c in constants})


def depth(tree: Node) -> int:
    """Max count of compute + branch nodes on any root-to-leaf path."""
    return _shape(tree)[0]


def multiplicative_depth(tree: Node) -> int:
    """Max count of mul/div nodes on any root-to-leaf path."""
    return _shape(tree)[1]


# -- rational-function values ------------------------------------------------

@dataclass(frozen=True)
class RatFunc:
    """num/den over Q[x], gcd-reduced, monic denominator."""

    num: DensePoly
    den: DensePoly

    @staticmethod
    def of(num: DensePoly, den: DensePoly = DensePoly.one()) -> "RatFunc":
        if den.is_zero:
            raise TreeError("zero denominator")
        if num.is_zero:
            return RatFunc(DensePoly.zero(), DensePoly.one())
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        lead = den.leading
        if lead != 1:
            num, den = num * (1 / lead), den * (1 / lead)
        return RatFunc(num, den)

    def arith(self, op: str, other: "RatFunc") -> "RatFunc":
        if op == "add":
            return RatFunc.of(self.num * other.den + other.num * self.den,
                              self.den * other.den)
        if op == "sub":
            return RatFunc.of(self.num * other.den - other.num * self.den,
                              self.den * other.den)
        if op == "mul":
            return RatFunc.of(self.num * other.num, self.den * other.den)
        if op == "div":
            if other.num.is_zero:
                raise TreeError("division by an identically-zero value")
            return RatFunc.of(self.num * other.den, self.den * other.num)
        raise TreeError(f"unknown op {op!r}")


_X = RatFunc(DensePoly.x(), DensePoly.one())


# -- symbolic paths ---------------------------------------------------------

def _paths(tree: Node, sides: Callable[[DensePoly], Tuple[bool, ...]]) -> Iterator[tuple]:
    """The one symbolic walk: run the tree over Q(x), yield each leaf reached.

    At a zero test with numerator n the walk takes each side in ``sides(n)``
    in order, True being the zero side. Per leaf it yields the leaf, the
    tests in path order as (numerator, zero side taken), the numerators of
    the divisors (a division removes the divisor's zeros from the path), and
    the path's depth and multiplicative depth.
    """
    validate(tree)
    regs: List[RatFunc] = []

    def walk(node: Node, tests: tuple, divisors: tuple, d: int, m: int) -> Iterator[tuple]:
        if isinstance(node, Leaf):
            yield node, tests, divisors, d, m
            return
        if isinstance(node, Branch):
            num = regs[node.test].num
            for zero in sides(num):
                yield from walk(node.zero if zero else node.nonzero,
                                tests + ((num, zero),), divisors, d + 1, m)
            return
        if isinstance(node, Input):
            regs.append(_X)
        elif isinstance(node, Const):
            regs.append(RatFunc.of(DensePoly.constant(node.value)))
        else:  # Compute
            lhs, rhs = regs[node.lhs], regs[node.rhs]
            if node.op == "div":
                divisors += (rhs.num,)
            regs.append(lhs.arith(node.op, rhs))
            d, m = d + 1, m + (node.op in _MULTIPLICATIVE)
        yield from walk(node.child, tests, divisors, d, m)
        regs.pop()

    return walk(tree, (), (), 0, 0)


# -- generic path -------------------------------------------------------------

@dataclass(frozen=True)
class PathPolynomial:
    """The canonical-path data: test numerators, their nonzero product, depths.

    ``poly`` is 1 when the generic path meets no branch; identically-zero
    tests route the generic input to the zero child and contribute factor 1.
    """

    poly: DensePoly
    tests: Tuple[DensePoly, ...]
    depth_total: int
    depth_mult: int


def trace_generic_path(tree: Node) -> PathPolynomial:
    """Follow the branch a generic input takes; multiply the test numerators met."""
    [(_, tests, _, depth_total, depth_mult)] = _paths(tree, lambda num: (num.is_zero,))
    g = DensePoly.one()
    for num, zero in tests:
        if not zero:
            g = g * num
    return PathPolynomial(g, tuple(num for num, _ in tests), depth_total, depth_mult)


# -- exact accept-set semantics ----------------------------------------------

@dataclass(frozen=True)
class PathCondition:
    """One accepting path, reduced: roots of ``equations`` minus roots of ``exclusions``.

    ``cofinite`` paths have no equations and accept everything outside the
    exclusions. Unsatisfiable paths reduce to equations == 1, cofinite False.
    """

    equations: DensePoly
    exclusions: DensePoly
    cofinite: bool


@dataclass(frozen=True)
class AcceptSet:
    """Union of the accepting paths.

    ``accepted_points`` is the monic squarefree polynomial whose roots are
    the points accepted along paths with equations; ``generic`` is set when
    some accepting path accepts a cofinite set.
    """

    paths: Tuple[PathCondition, ...]
    accepted_points: DensePoly
    generic: bool


def _reduce_path(eqs: List[DensePoly], nonzeros: List[DensePoly]) -> PathCondition:
    one = DensePoly.one()
    if any(p.is_zero for p in nonzeros):
        return PathCondition(one, one, False)  # required nonzero, identically zero
    excl = one
    for p in nonzeros:
        if p.degree > 0:
            excl = excl * (squarefree_part(p) // excl.gcd(squarefree_part(p)))
    real_eqs = [e for e in eqs if not e.is_zero]  # 0 = 0 constrains nothing
    if any(e.degree == 0 for e in real_eqs):
        return PathCondition(one, excl, False)  # nonzero constant = 0: empty
    if not real_eqs:
        return PathCondition(one, excl, True)
    g = real_eqs[0]
    for e in real_eqs[1:]:
        g = g.gcd(e)
    if g.degree == 0:
        return PathCondition(one, excl, False)
    w = squarefree_part(g)
    w = (w // w.gcd(excl)).monic()
    if w.degree == 0:
        return PathCondition(one, excl, False)
    return PathCondition(w, excl, False)


def accept_set(tree: Node) -> AcceptSet:
    """Reduce every root-to-accept path to its exact accepted set and union them."""
    conditions = [
        _reduce_path([num for num, zero in tests if zero],
                     [num for num, zero in tests if not zero] + list(divisors))
        for leaf, tests, divisors, _, _ in _paths(tree, lambda num: (True, False))
        if leaf.accept
    ]
    union = DensePoly.one()
    generic = False
    for cond in conditions:
        if cond.cofinite:
            generic = True
        elif cond.equations.degree > 0:
            union = union * (cond.equations // union.gcd(cond.equations))
    return AcceptSet(tuple(conditions), union.monic(), generic)


def decides(tree: Node, target: DensePoly) -> bool:
    """True iff the tree accepts exactly the complex roots of ``target``.

    Compared through squarefree parts over Q; a tree accepting a cofinite
    set never decides the (finite) root set of a nonzero polynomial.
    """
    if target.is_zero:
        raise TreeError("target must be nonzero")
    result = accept_set(tree)
    if result.generic:
        return False
    return result.accepted_points == squarefree_part(target)


def accepts(tree: Node, x: Rational) -> bool:
    """Run the tree on a rational input; division by zero rejects the input."""
    validate(tree)
    regs: List[Fraction] = []
    node = tree
    xval = Fraction(x)
    while not isinstance(node, Leaf):
        if isinstance(node, Input):
            regs.append(xval)
            node = node.child
        elif isinstance(node, Const):
            regs.append(node.value)
            node = node.child
        elif isinstance(node, Compute):
            a, b = regs[node.lhs], regs[node.rhs]
            if node.op == "add":
                regs.append(a + b)
            elif node.op == "sub":
                regs.append(a - b)
            elif node.op == "mul":
                regs.append(a * b)
            else:
                if b == 0:
                    return False  # outside the path domain
                regs.append(a / b)
            node = node.child
        else:
            node = node.zero if regs[node.test] == 0 else node.nonzero
    return node.accept


# -- text format ---------------------------------------------------------------
#
# One node per line, path-addressed. Straight-line statements are
# "nK = input", "nK = const 3/4", "nK = mul n0 n1". A branch line reads
# "branch n2 ? L:accept R:..." where a leaf child is inlined and "..." means
# the child's statements follow on lines prefixed with the branch path, e.g.
# "R: n3 = add n0 n1" and nested "R.L: accept". Each block ends in its one
# leaf or branch line, names L and R once per branch, and is reached by a
# "..." child; parse_tree rejects any other line rather than dropping it.

def format_tree(tree: Node) -> str:
    lines: List[str] = []

    def word(node: Node) -> str:  # a leaf child is inlined, any other is "..."
        return ("accept" if node.accept else "reject") if isinstance(node, Leaf) else "..."

    def walk(node: Node, nvals: int, addr: str) -> None:
        prefix = f"{addr}: " if addr else ""
        while isinstance(node, (Input, Const, Compute)):
            if isinstance(node, Input):
                rhs = "input"
            elif isinstance(node, Const):
                rhs = f"const {format_rational(node.value)}"
            else:
                rhs = f"{node.op} n{node.lhs} n{node.rhs}"
            lines.append(f"{prefix}n{nvals} = {rhs}")
            nvals, node = nvals + 1, node.child
        if isinstance(node, Leaf):
            lines.append(prefix + word(node))
            return
        lines.append(f"{prefix}branch n{node.test} ? L:{word(node.zero)} R:{word(node.nonzero)}")
        for tag, child in (("L", node.zero), ("R", node.nonzero)):
            if not isinstance(child, Leaf):
                walk(child, nvals, f"{addr}.{tag}" if addr else tag)

    walk(tree, 0, "")
    return "\n".join(lines) + "\n"


_LEAVES = {"accept": Leaf(True), "reject": Leaf(False)}


def parse_tree(text: str) -> Node:
    """Parse ``format_tree`` output; TreeError on any malformed or unused line."""
    blocks: Dict[str, List[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        addr, sep, rest = line.partition(": ")
        if sep and not addr.startswith(("n", "branch", "accept", "reject")):
            blocks.setdefault(addr, []).append(rest.strip())
        else:
            blocks.setdefault("", []).append(line)
    reached: Set[str] = set()

    def build(addr: str, nvals: int) -> Node:
        """A block: value statements "nK = ...", then one leaf or branch line."""
        stmts = blocks.get(addr)
        if not stmts:
            raise TreeError(f"missing block at path {addr or '<root>'!r}")
        reached.add(addr)
        makers: List[Callable[[Node], Node]] = []
        for line in stmts[:-1]:
            name, _, rhs = line.partition("=")
            if name.strip() != f"n{nvals}":
                raise TreeError(f"expected value n{nvals}, got {line!r}")
            words = rhs.split()
            if words == ["input"]:
                makers.append(Input)
            elif len(words) == 2 and words[0] == "const":
                try:
                    makers.append(partial(Const, parse_rational(words[1])))
                except ValuationError:
                    raise TreeError(f"bad constant in {line!r}") from None
            elif len(words) == 3 and words[0] in OPS:
                makers.append(partial(Compute, words[0], ref(words[1], nvals),
                                      ref(words[2], nvals)))
            else:
                raise TreeError(f"bad statement {line!r}")
            nvals += 1
        node = build_end(stmts[-1], addr, nvals)
        for make in reversed(makers):
            node = make(node)
        return node

    def build_end(line: str, addr: str, nvals: int) -> Node:
        """A leaf, or "branch nK ? L:<child> R:<child>" with each child a leaf or "..."."""
        if line in _LEAVES:
            return _LEAVES[line]
        words = line.split()
        if not (len(words) == 5 and words[0] == "branch" and words[2] == "?"):
            raise TreeError(f"block {addr or '<root>'!r} ends in a bad line: {line!r}")
        test = ref(words[1], nvals)
        children: Dict[str, Node] = {}
        for part in words[3:]:
            tag, _, what = part.partition(":")
            if tag not in ("L", "R") or tag in children or what not in (*_LEAVES, "..."):
                raise TreeError(f"bad branch child {part!r}")
            child_addr = f"{addr}.{tag}" if addr else tag
            children[tag] = _LEAVES[what] if what in _LEAVES else build(child_addr, nvals)
        return Branch(test, children["L"], children["R"])

    def ref(token: str, nvals: int) -> int:
        if not re.fullmatch(r"n[0-9]+", token) or int(token[1:]) >= nvals:
            raise TreeError(f"bad value reference {token!r} before n{nvals}")
        return int(token[1:])

    tree = build("", 0)
    unreached = sorted(set(blocks) - reached)
    if unreached:
        raise TreeError(f"block {unreached[0]!r} is not reached by a '...' child")
    validate(tree)
    return tree
