"""Exhaustive enumeration of small computation trees, up to canonicalization.

Trees are enumerated semantically: a state is (set of values computed so
far, the set of inputs that can still reach this node, remaining depth).
Transitions are the distinct NEW values an arithmetic step can produce and
the zero-tests whose outcome the reachable set does not already determine.
Each pruned tree has a semantic equivalent of no greater depth among the
retained ones:

  * a step recomputing a value already available is replaced by references
    to the existing register (one node shorter);
  * operand order on add/mul cannot change the value, so value-level
    transitions subsume commutative reordering and constant folding;
  * a branch whose test is constant on every input reaching it has an
    unreachable child; the tree is replaced by the taken child.

Reachable-input sets stay exactly representable throughout: they are either
the complement of a finite algebraic set (`cofinite` contexts, excluded
roots) or a finite algebraic set (`finite` contexts). Either set is held as
its squarefree polynomial over Z in primitive form with positive leading
coefficient, the integer stand-in for the monic squarefree polynomial over
Q, so contexts, goals and exclusions are plain int tuples and all context
algebra is the integer kernel of `polynomials` (pseudo-remainder gcd, exact
quotients). Deciding a target means accepting exactly the target's roots,
which splits cleanly across branch transitions, so witness search,
canonical-tree counting and the generic-path sweep are all memoized dynamic
programs over these states. Counts are therefore exact even when the number
of canonical trees is far too large to materialize.

Values are (numerator, denominator) coefficient tuples, the denominator
monic and (1,) unless division is enabled. Each is interned (hash-consing;
Ershov 1958, Filliatre and Conchon 2006): its int id indexes an id -> value
and an id -> `_vkey` table, environments are tuples of ids in `_vkey`
order, and an arithmetic step is a lookup in a per-op table keyed by the
operand ids, filled on a miss. The squarefree part of a value and each
context split are cached per id.

The three programs share one transition generator. `split_ctx` is the only
rule for how a context changes: a zero-test splits it into the inputs that
zero the tested value and those that do not, and a division keeps the
divisor's nonzero part. `steps` yields the reachable compute transitions
and `branches` the undetermined zero-tests; each program only combines
their children (a count sums them, the witness search looks for one that
decides the goal, the sweep follows the nonzero side of every test).

A computes table is built in one pass over every pair of its environment
in (op order, lhs index, rhs index) order; each new value keeps its first
pair, and its child environment is the parent's with the value inserted in
`_vkey` order. Counting the new values S of an environment without building
its table uses the semi-naive rule of Bancilhon and Ramakrishnan (1986):
env = sub + {v} has as new values those of sub other than v plus those of
the pairs with v as an operand, so with sub's table cached only those pairs
are evaluated.

Each program closes its last level without expanding the leaves below it,
so a table is built only for an environment whose steps lead to more than
leaves. The sweep records g at the depth bound and returns, and one level
above it follows only the branches, since a step keeps g. With one unit of
budget left every child is a leaf. A step keeps its context and goal
unless it divides, and a division hole matters to a leaf only in a finite
context, which it can empty or shrink to the goal. Outside that case the
witness search tries only the branches, and the count is 2 + 2S + 4B for
S new values and B branches; S is counted as above, and the table is not
built. A state in the `max_states` budget is an expanded state: a memo
entry of the count or the witness search, or a visited key of the sweep
below the depth bound. Leaves and the sweep's states at the bound are never
counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .polynomials import (
    DensePoly,
    poly_to_json,
    zadd,
    zgcd,
    zmul,
    zquo,
    zsquarefree,
    zsub,
)
from .trees import (
    Branch,
    Compute,
    Const,
    DEFAULT_CONSTANTS,
    DEFAULT_OPS,
    Input,
    Leaf,
    Node,
    OPS,
    TreeError,
    decides,
    depth as tree_depth,
    format_tree,
)
from .valuation import Rational, format_rational

DEFAULT_MAX_STATES = 5_000_000

_ONE_T = (1,)

# values are (numerator, denominator) coefficient tuples; denominators stay
# (1,) unless division is enabled
_Value = Tuple[tuple, tuple]


class BudgetExceeded(RuntimeError):
    pass


def _vkey(v: _Value):
    num, den = v
    return (len(den), den, len(num), num)


def _integral(*coeffs: tuple) -> Tuple[tuple, ...]:
    """Rational coefficient tuples scaled by one common factor to integers."""
    m = lcm(*(c.denominator for cs in coeffs for c in cs))
    return tuple(tuple(c.numerator * (m // c.denominator) for c in cs)
                 for cs in coeffs)


def _goal(target: DensePoly) -> tuple:
    """The target's squarefree part over Z: primitive, positive leading coefficient."""
    return zsquarefree(_integral(target.coeffs)[0])


def _over(cs: tuple, d: int) -> tuple:
    return tuple(c // d if c % d == 0 else Fraction(c, d) for c in cs)


def _value(op: str, a: _Value, b: _Value) -> _Value:
    """a op b, uncached: the arithmetic behind each new entry of the intern table."""
    an, ad = a
    bn, bd = b
    if op != "div" and ad == _ONE_T and bd == _ONE_T:
        if op == "add":
            return (zadd(an, bn), _ONE_T)
        if op == "sub":
            return (zsub(an, bn), _ONE_T)
        return (zmul(an, bn), _ONE_T)
    # rational functions: combine over Z, reduce, make the denominator monic
    an, ad, bn, bd = _integral(an, ad, bn, bd)
    if op == "add":
        num, den = zadd(zmul(an, bd), zmul(bn, ad)), zmul(ad, bd)
    elif op == "sub":
        num, den = zsub(zmul(an, bd), zmul(bn, ad)), zmul(ad, bd)
    elif op == "mul":
        num, den = zmul(an, bn), zmul(ad, bd)
    else:
        num, den = zmul(an, bd), zmul(ad, bn)
    if not num:
        return ((), _ONE_T)
    g = zgcd(num, den)
    if len(g) > 1:
        num, den = zquo(num, g), zquo(den, g)
    return (_over(num, den[-1]), _over(den, den[-1]))


@dataclass(frozen=True)
class PathClass:
    """One distinct canonical generic path: its polynomial and the least depth realizing it."""

    poly: DensePoly
    min_depth: int


class _Enumerator:
    """Shared machinery: transition generation, context algebra, the three DPs."""

    def __init__(self, ops: Sequence[str], constants: Sequence[Rational],
                 max_states: int = DEFAULT_MAX_STATES):
        bad = set(ops) - set(OPS)
        if bad:
            raise TreeError(f"unknown ops {sorted(bad)}")
        self.ops = tuple(op for op in OPS if op in set(ops))
        consts = sorted({Fraction(c) for c in constants})
        self.constants = tuple(
            c.numerator if c.denominator == 1 else c for c in consts)
        self.max_states = max_states
        self.states = 0
        # interned values: id -> value, id -> _vkey, value -> id, and the
        # squarefree part of an id's numerator once it is needed
        self._vals: List[_Value] = []
        self._keys: List[tuple] = []
        self._ids: Dict[_Value, int] = {}
        self._sfs: Dict[int, tuple] = {}
        # per op, the id of i op j under the key i << 32 | j
        self._arith_ids: Dict[str, Dict[int, int]] = {op: {} for op in self.ops}
        # the registers every tree starts with: the input x, then the constants
        self._regs0 = (self._intern(((0, 1), _ONE_T)),) + tuple(
            self._intern(((() if c == 0 else (c,)), _ONE_T)) for c in self.constants)
        self.env0: Tuple[int, ...] = tuple(sorted(self._regs0, key=self._keys.__getitem__))
        self._computes_cache: Dict[tuple, list] = {}
        self._plans: Dict[tuple, tuple] = {}
        self._splits: Dict[tuple, dict] = {}
        self._gcd_cache: Dict[tuple, tuple] = {}
        self._count_memo: Dict[tuple, int] = {}
        self._witness_memo: Dict[tuple, object] = {}
        self.ctx0 = ("cof", _ONE_T)

    # -- bookkeeping -------------------------------------------------------

    def _tick(self) -> None:
        self.states += 1
        if self.states > self.max_states:
            raise BudgetExceeded(f"state budget {self.max_states} exceeded")

    # -- value arithmetic ----------------------------------------------------

    def _intern(self, v: _Value) -> int:
        i = self._ids.get(v)
        if i is None:
            i = self._ids[v] = len(self._vals)
            self._vals.append(v)
            self._keys.append(_vkey(v))
        return i

    def _arith(self, op: str, i: int, j: int) -> int:
        """The id of value i op value j; the arithmetic runs on the first request only."""
        table = self._arith_ids[op]
        got = table.get(i << 32 | j)
        if got is None:
            neg = table.get(j << 32 | i) if op == "sub" else None
            if neg is not None:  # i - j = -(j - i)
                num, den = self._vals[neg]
                got = self._intern((tuple(-c for c in num), den))
            else:
                got = self._intern(_value(op, self._vals[i], self._vals[j]))
            table[i << 32 | j] = got
        return got

    def computes(self, env: Tuple[int, ...]) -> list:
        """Distinct new values producible in one step, sorted by `_vkey`.

        Each entry is (value, op, lhs, rhs, child environment). (op, lhs,
        rhs) is the value's first producing pair in (op order, lhs index,
        rhs index) order, with lhs index <= rhs index for add and mul.
        """
        got = self._computes_cache.get(env)
        if got is None:
            fresh = self._fresh(env, None)
            got = self._computes_cache[env] = []
            # in env and the new values merged, pos - len(got) of env precede w
            for pos, w in enumerate(sorted(env + tuple(fresh), key=self._keys.__getitem__)):
                pair = fresh.get(w)
                if pair is not None:
                    o, i, j = pair
                    k = pos - len(got)
                    got.append((w, self.ops[o], env[i], env[j], env[:k] + (w,) + env[k:]))
        return got

    def _plan(self, n: int, p: Optional[int]) -> tuple:
        """(op index, lhs index, rhs index) of each pair of n values, or of operand p, in order."""
        got = self._plans.get((n, p))
        if got is None:
            got = self._plans[n, p] = tuple(
                (o, i, j) for o, op in enumerate(self.ops) for i in range(n)
                for j in range(i if op in ("add", "mul") else 0, n)
                if p is None or p in (i, j))
        return got

    def _fresh(self, env: Tuple[int, ...], p: Optional[int]) -> dict:
        """Values not in env of the pairs of `_plan(len(env), p)`, each with its first pair."""
        fresh = dict.fromkeys(env)  # env's own values, dropped at the end
        tables = [self._arith_ids[op] for op in self.ops]
        for pair in self._plan(len(env), p):
            o, i, j = pair
            w = tables[o].get(env[i] << 32 | env[j])
            if w is None:
                if self.ops[o] == "div" and not self._vals[env[j]][0]:
                    continue  # division by the zero value is malformed
                w = self._arith(self.ops[o], env[i], env[j])
            fresh.setdefault(w, pair)
        for u in env:
            del fresh[u]
        return fresh

    def _new_values(self, env: Tuple[int, ...]) -> int:
        """len(computes(env)); a table not cached is counted, not built."""
        got = self._computes_cache.get(env)
        if got is not None:
            return len(got)
        for p in range(len(env) - 1, -1, -1):
            old = self._computes_cache.get(env[:p] + env[p + 1:])
            if old is not None:  # semi-naive: sub's values, less env[p], plus p's pairs
                vals = {e[0] for e in old}
                vals.discard(env[p])
                vals.update(self._fresh(env, p))
                return len(vals)
        return len(self._fresh(env, None))

    # -- context algebra -----------------------------------------------------

    def sf(self, v: int) -> tuple:
        """The primitive squarefree part of value v's numerator."""
        got = self._sfs.get(v)
        if got is None:
            got = self._sfs[v] = zsquarefree(_integral(self._vals[v][0])[0])
        return got

    def gcd(self, a: tuple, b: tuple) -> tuple:
        key = (a, b) if a <= b else (b, a)
        got = self._gcd_cache.get(key)
        if got is None:
            got = zgcd(a, b)
            self._gcd_cache[key] = got
        return got

    def split_ctx(self, ctx, s: tuple):
        """Split a context along the zero set of squarefree s: (zero part, nonzero part).

        An empty part is None; a part equal to the whole context is `ctx` itself.
        """
        kind, w = ctx
        if kind == "cof":
            z = s if len(w) == 1 else zquo(s, self.gcd(s, w))  # roots not yet excluded
            if len(z) == 1:
                return None, ctx
            return ("fin", z), ("cof", zmul(w, z))
        c = self.gcd(w, s)
        if len(c) == 1:
            return None, ctx
        if c == w:
            return ctx, None
        return ("fin", c), ("fin", zquo(w, c))

    def _split(self, ctx, v: int):
        """split_ctx along value v's zeros, cached per (ctx, v); a constant splits nothing."""
        memo = self._splits.setdefault(ctx, {})
        got = memo.get(v)
        if got is None:
            got = memo[v] = ((None, ctx) if self._keys[v][2] < 2
                             else self.split_ctx(ctx, self.sf(v)))
        return got

    def branches(self, env: Tuple[int, ...], ctx) -> list:
        """Zero-tests whose outcome the context leaves open: (value, zero ctx, nonzero ctx)."""
        memo = self._splits.get(ctx, {})
        out = []
        for v in env:
            zctx, nctx = memo.get(v) or self._split(ctx, v)
            if zctx is not None and nctx is not None:
                out.append((v, zctx, nctx))
        return out

    def steps(self, env: Tuple[int, ...], ctx):
        """Compute transitions (value, op, lhs, rhs, child env, child ctx) some input reaches.

        Division punches the divisor's zeros out of the context; a step
        whose context that empties is unreachable and skipped.
        """
        for v, op, lhs, rhs, env2 in self.computes(env):
            ctx2 = ctx
            if op == "div":
                ctx2 = self._split(ctx, rhs)[1]
                if ctx2 is None:
                    continue
            yield v, op, lhs, rhs, env2, ctx2

    def _hole_matters(self, ctx) -> bool:
        """Whether a step into a budget-0 leaf can depend on the step's context.

        A step keeps its context unless a division punches the divisor's
        zeros out of it, and only a finite context can be emptied or turned
        into the goal that way.
        """
        return ctx[0] == "fin" and "div" in self.ops

    # -- canonical tree count -------------------------------------------------

    def count(self, env: Tuple[int, ...], ctx, budget: int) -> int:
        if budget == 0:
            return 2
        key = (env, ctx[0], ctx[1], budget)
        got = self._count_memo.get(key)
        if got is not None:
            return got
        self._tick()
        if budget == 1 and not self._hole_matters(ctx):
            # every child is a leaf: two trees per step, four per branch
            total = 2 + 2 * self._new_values(env) + 4 * len(self.branches(env, ctx))
        else:
            total = 2
            for _v, _op, _lhs, _rhs, env2, ctx2 in self.steps(env, ctx):
                total += self.count(env2, ctx2, budget - 1)
            for _v, zctx, nctx in self.branches(env, ctx):
                total += (self.count(env, zctx, budget - 1)
                          * self.count(env, nctx, budget - 1))
        self._count_memo[key] = total
        return total

    # -- witness search ---------------------------------------------------------

    def witness(self, env: Tuple[int, ...], ctx, goal: tuple, budget: int):
        """Semantic tree deciding `goal` within `ctx`, or None. Goal is primitive squarefree."""
        if ctx[0] == "fin" and ctx[1] == goal:
            return ("leaf", True)
        if len(goal) == 1:
            return ("leaf", False)
        if budget == 0:
            return None
        key = (env, ctx[0], ctx[1], goal, budget)
        if key in self._witness_memo:
            return self._witness_memo[key]
        self._tick()
        found = None
        steps = self.steps(env, ctx)
        if budget == 1 and not self._hole_matters(ctx):
            steps = ()  # a step keeps ctx and goal, so no leaf below it decides
        for v, op, lhs, rhs, env2, ctx2 in steps:
            if ctx2 != ctx:
                # inputs lost to the division hole are rejected; if any goal
                # point is among them the subtree cannot decide the goal
                if len(self.gcd(goal, self.sf(rhs))) > 1:
                    continue
            sub = self.witness(env2, ctx2, goal, budget - 1)
            if sub is not None:
                found = ("compute", v, op, lhs, rhs, sub)
                break
        if found is None:
            for v, zctx, nctx in self.branches(env, ctx):
                zgoal = self.gcd(goal, zctx[1])
                ngoal = zquo(goal, zgoal) if len(zgoal) > 1 else goal
                zsub = self.witness(env, zctx, zgoal, budget - 1)
                if zsub is None:
                    continue
                nsub = self.witness(env, nctx, ngoal, budget - 1)
                if nsub is None:
                    continue
                found = ("branch", v, zsub, nsub)
                break
        self._witness_memo[key] = found
        return found

    def find_witness(self, target: DensePoly, max_depth: int,
                     goal: Optional[tuple] = None) -> Optional[Node]:
        """The shallowest witness tree by iterative deepening, checked with `decides`.

        `goal` is `_goal(target)`, computed here if not given. Raises
        BudgetExceeded when the state budget runs out first.
        """
        if goal is None:
            goal = _goal(target)
        for budget in range(max_depth + 1):
            sem = self.witness(self.env0, self.ctx0, goal, budget)
            if sem is not None:
                break
        else:
            return None
        tree = self.to_tree(sem)
        if not decides(tree, target):
            raise RuntimeError("enumerator produced a non-deciding witness")
        return tree

    # -- generic-path sweep -------------------------------------------------------

    def sweep_paths(self, env: Tuple[int, ...], ctx, g: tuple,
                    used: int, max_depth: int,
                    results: Dict[tuple, int], visited: set) -> None:
        """Record every distinct (generic-path polynomial, depth) reachable from here.

        The generic path takes the nonzero side of every test, so `ctx` is
        always cofinite and `g` is the product of the tests taken. A state at
        the depth bound only records g; one level above it only the branches
        can add a class, since a step keeps g.
        """
        prev = results.get(g)
        if prev is None or used < prev:
            results[g] = used
        if used == max_depth:
            return
        key = (env, ctx[1], g, used)
        if key in visited:
            return
        visited.add(key)
        self._tick()
        if used + 1 < max_depth:
            for _v, _op, _lhs, _rhs, env2, ctx2 in self.steps(env, ctx):
                self.sweep_paths(env2, ctx2, g, used + 1, max_depth, results, visited)
        for v, _zctx, nctx in self.branches(env, ctx):
            self.sweep_paths(env, nctx, zmul(g, self._vals[v][0]), used + 1,
                             max_depth, results, visited)

    # -- semantic witness -> explicit tree ----------------------------------------

    def to_tree(self, sem) -> Node:
        regindex = {v: k for k, v in enumerate(self._regs0)}

        def build(node, nvals: int, index: dict) -> Node:
            kind = node[0]
            if kind == "leaf":
                return Leaf(node[1])
            if kind == "compute":
                _, v, op, lhs, rhs, child = node
                idx = dict(index)
                idx[v] = nvals
                return Compute(op, index[lhs], index[rhs],
                               build(child, nvals + 1, idx))
            _, v, zsub, nsub = node
            return Branch(index[v],
                          build(zsub, nvals, index),
                          build(nsub, nvals, index))

        body = build(sem, len(regindex), regindex)
        for c in reversed(self.constants):
            body = Const(Fraction(c), body)
        return Input(body)


@dataclass(frozen=True)
class RefutationReport:
    """Outcome of an exhaustive search for deciders of a target's zero set."""

    target: DensePoly
    target_squarefree: DensePoly
    max_depth: int
    ops: Tuple[str, ...]
    constants: Tuple[Fraction, ...]
    decided: bool
    witness: Optional[str]
    witness_depth: Optional[int]
    refuted: bool
    canonical_trees: Optional[int]
    generic_path_classes: Optional[int]
    divisibility_failures: Optional[int]
    all_generic_paths_fail_divisibility: Optional[bool]
    inconclusive: bool

    def to_json(self) -> dict:
        return {
            "target": poly_to_json(self.target),
            "target_squarefree": poly_to_json(self.target_squarefree),
            "max_depth": self.max_depth,
            "ops": list(self.ops),
            "constants": [format_rational(c) for c in self.constants],
            "decided": self.decided,
            "witness": self.witness,
            "witness_depth": self.witness_depth,
            "refuted": self.refuted,
            "canonical_trees": None if self.canonical_trees is None
            else str(self.canonical_trees),
            "generic_path_classes": None if self.generic_path_classes is None
            else str(self.generic_path_classes),
            "divisibility_failures": None if self.divisibility_failures is None
            else str(self.divisibility_failures),
            "all_generic_paths_fail_divisibility":
                self.all_generic_paths_fail_divisibility,
            "inconclusive": self.inconclusive,
            "depth_measure": "total",
        }


def generic_path_classes(max_depth: int,
                         ops: Sequence[str] = DEFAULT_OPS,
                         constants: Sequence[Rational] = DEFAULT_CONSTANTS,
                         max_states: int = DEFAULT_MAX_STATES) -> List[PathClass]:
    """Every distinct canonical generic-path polynomial within the depth budget.

    Each canonical tree's generic path appears here (the path's statements
    are themselves a canonical straight-line prefix), so a property checked
    over these classes holds for the generic path of every enumerated tree.
    """
    enum = _Enumerator(ops, constants, max_states)
    results: Dict[tuple, int] = {}
    enum.sweep_paths(enum.env0, enum.ctx0, _ONE_T, 0, max_depth, results, set())
    classes = [PathClass(DensePoly(g), t) for g, t in results.items()]
    classes.sort(key=lambda pc: (pc.min_depth, len(pc.poly.coeffs), pc.poly.coeffs))
    return classes


def count_canonical_trees(max_depth: int,
                          ops: Sequence[str] = DEFAULT_OPS,
                          constants: Sequence[Rational] = DEFAULT_CONSTANTS,
                          max_states: int = DEFAULT_MAX_STATES) -> int:
    """Number of canonical trees of depth <= max_depth (computed, not materialized)."""
    enum = _Enumerator(ops, constants, max_states)
    return enum.count(enum.env0, enum.ctx0, max_depth)


def enumerate_and_refute(target: DensePoly,
                         max_depth: int,
                         ops: Sequence[str] = DEFAULT_OPS,
                         constants: Sequence[Rational] = DEFAULT_CONSTANTS,
                         max_states: int = DEFAULT_MAX_STATES) -> RefutationReport:
    """Search every canonical tree within the depth budget for a decider of target's roots.

    Returns a witness tree when one exists, otherwise the canonical-tree
    count certifying the refutation; in both cases the generic-path
    polynomials of all enumerated trees are checked for divisibility by the
    squarefree part of the target. The outcome is deterministic.
    """
    if target.is_zero:
        raise TreeError("refutation target must be nonzero")
    if max_depth < 0:
        raise TreeError("max_depth must be >= 0")
    goal = _goal(target)
    enum = _Enumerator(ops, constants, max_states)
    inconclusive = False

    # Phase 1: witness search, iterative deepening so shallow deciders are
    # found without exploring the full-depth state space.
    witness_complete = True
    try:
        witness_tree = enum.find_witness(target, max_depth, goal)
    except BudgetExceeded:
        witness_tree = None
        witness_complete = False
        inconclusive = True

    # Phase 2: generic-path divisibility sweep.
    path_results: Optional[Dict[tuple, int]] = {}
    try:
        enum.sweep_paths(enum.env0, enum.ctx0, _ONE_T, 0, max_depth,
                         path_results, set())
    except BudgetExceeded:
        path_results = None
        inconclusive = True

    path_count = failures = all_fail = None
    if path_results is not None:
        path_count = len(path_results)
        # goal divides g over Q iff their gcd is goal itself
        failures = sum(1 for g in path_results
                       if g and zgcd(goal, _integral(g)[0]) != goal)
        all_fail = failures == path_count

    # Phase 3: canonical-tree count, only for a refutation certificate.
    canonical = None
    if witness_tree is None and witness_complete:
        try:
            canonical = enum.count(enum.env0, enum.ctx0, max_depth)
        except BudgetExceeded:
            inconclusive = True

    return RefutationReport(
        target=target,
        # the monic squarefree part over Q is unique, so it is goal made monic
        target_squarefree=DensePoly(goal) * Fraction(1, goal[-1]),
        max_depth=max_depth,
        ops=enum.ops,
        constants=tuple(Fraction(c) for c in enum.constants),
        decided=witness_tree is not None,
        witness=None if witness_tree is None else format_tree(witness_tree),
        witness_depth=None if witness_tree is None else tree_depth(witness_tree),
        refuted=witness_tree is None and witness_complete,
        canonical_trees=canonical,
        generic_path_classes=path_count,
        divisibility_failures=failures,
        all_generic_paths_fail_divisibility=all_fail,
        inconclusive=inconclusive,
    )


def find_decider(target: DensePoly,
                 max_depth: int,
                 ops: Sequence[str] = DEFAULT_OPS,
                 constants: Sequence[Rational] = DEFAULT_CONSTANTS,
                 max_states: int = DEFAULT_MAX_STATES) -> Optional[Node]:
    """Convenience wrapper: the witness tree deciding target's roots, or None."""
    if target.is_zero:
        raise TreeError("target must be nonzero")
    enum = _Enumerator(ops, constants, max_states)
    return enum.find_witness(target, max_depth)
