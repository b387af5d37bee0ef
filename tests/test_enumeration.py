import hashlib
import json
from fractions import Fraction

import pytest

from newtonbench.cli import main

from newtonbench.enumeration import (
    BudgetExceeded,
    _Enumerator,
    _ONE_T,
    _value,
    _vkey,
    count_canonical_trees,
    enumerate_and_refute,
    find_decider,
    generic_path_classes,
)
from newtonbench.families import FamilyId, gen_exact
from newtonbench.polynomials import DensePoly, divides, squarefree_part, zquo
from newtonbench.trees import (
    DEFAULT_CONSTANTS,
    RatFunc,
    TreeError,
    decides,
    depth,
    parse_tree,
    trace_generic_path,
)


def P(*coeffs):
    return DensePoly(coeffs)


def test_count_small_depths_by_hand():
    # depth 0: the two leaves
    assert count_canonical_trees(0) == 2
    # depth 1 over {x, 0, 1}: 8 distinct new values (2x, x+1, 2, x-1, -x, -1,
    # 1-x, x^2), each followed by a leaf pair, plus the single branch on x
    # with 2x2 leaf children: 2 + 8*2 + 1*4 = 22.
    assert count_canonical_trees(1) == 22


def test_count_monotone_and_deterministic():
    counts = [count_canonical_trees(d) for d in range(4)]
    assert counts == sorted(counts)
    assert counts[0] < counts[1] < counts[2] < counts[3]
    assert count_canonical_trees(3) == count_canonical_trees(3)


def test_find_decider_single_branch():
    w = find_decider(P(0, 1), 1)  # target x
    assert w is not None
    assert depth(w) == 1
    assert decides(w, P(0, 1))


def test_find_decider_x2_minus_x():
    w = find_decider(P(0, -1, 1), 4)
    assert w is not None
    assert depth(w) <= 4
    assert decides(w, P(0, -1, 1))


def test_find_decider_x2_minus_2_needs_depth_4():
    assert find_decider(P(-2, 0, 1), 3) is None
    w = find_decider(P(-2, 0, 1), 4)
    assert w is not None
    assert depth(w) == 4
    assert decides(w, P(-2, 0, 1))


def test_find_decider_zero_one_set():
    w = find_decider(P(0, -1, 1), 3)
    assert w is not None and depth(w) == 3


def test_find_decider_rootless_target():
    w = find_decider(P(7), 0)
    assert w is not None
    assert decides(w, P(7))
    report = enumerate_and_refute(P(7), 0)
    assert report.decided and not report.refuted
    assert report.witness.splitlines()[-1] == "reject"
    assert report.witness_depth == 0


def test_refute_q2_at_depth_3():
    report = enumerate_and_refute(gen_exact(FamilyId("q", 2)), 3)
    assert report.refuted and not report.decided
    assert not report.inconclusive
    assert report.canonical_trees == count_canonical_trees(3)
    assert report.all_generic_paths_fail_divisibility
    assert report.divisibility_failures == report.generic_path_classes
    assert report.witness is None


def test_refute_finds_witness_and_validates_it():
    report = enumerate_and_refute(P(0, -1, 1), 4)
    assert report.decided and not report.refuted
    assert report.canonical_trees is None  # either a witness or a count
    tree = parse_tree(report.witness)
    assert decides(tree, P(0, -1, 1))
    assert report.witness_depth == depth(tree) <= 4
    # the witness's own generic path is divisible by the target, so not all fail
    assert not report.all_generic_paths_fail_divisibility


def test_generic_path_classes_cover_trace():
    # every class polynomial must be realizable: check a couple by hand
    classes = generic_path_classes(2)
    polys = {pc.poly for pc in classes}
    assert DensePoly.one() in polys          # the no-branch path
    assert P(0, 1) in polys                  # test x
    assert any(pc.poly == P(0, 1) and pc.min_depth == 1 for pc in classes)


def test_generic_path_invariants_depth_3():
    for pc in generic_path_classes(3):
        t = pc.min_depth
        assert pc.poly.degree <= 2 ** (t * t)
        for c in pc.poly.coeffs:
            assert c.denominator == 1
            if c != 0:
                assert _val2(int(c)) >= 0
                assert _val2(int(c)) <= 2 ** (t * t)


def _val2(n):
    return (abs(n) & -abs(n)).bit_length() - 1


def test_path_classes_match_explicit_trace():
    # the x^2-x decider's generic path polynomial appears among the classes
    classes = {pc.poly for pc in generic_path_classes(3)}
    w = find_decider(P(0, -1, 1), 3)
    assert trace_generic_path(w).poly in classes


def test_budget_exceeded_raises_and_flags():
    with pytest.raises(BudgetExceeded):
        count_canonical_trees(3, max_states=10)
    report = enumerate_and_refute(gen_exact(FamilyId("q", 2)), 3, max_states=10)
    assert report.inconclusive
    assert report.canonical_trees is None


def test_refute_rejects_bad_input():
    with pytest.raises(TreeError):
        enumerate_and_refute(DensePoly.zero(), 2)
    with pytest.raises(TreeError):
        enumerate_and_refute(P(0, 1), 2, ops=("add", "xor"))


def test_divisibility_necessary_condition_on_witness():
    # canonical-path necessary condition: a decider's generic path polynomial
    # is a multiple of the squarefree part of what it decides
    for target in (P(0, 1), P(0, -1, 1), P(-2, 0, 1)):
        w = find_decider(target, 4)
        g = trace_generic_path(w).poly
        assert divides(squarefree_part(target), g)


# Expanded states per phase (witness, sweep, count) and environments with a
# computes table when q:2 is refuted; a child environment built out of order
# would still give the same reports but reach more environments, and so
# change where a --max-states budget runs out. Terminal states are not
# counted: the sweep figures are the visited keys with used < max_depth of
# the sweep that also expanded states at the depth bound (1,298 of 23,509
# and 135 of 2,380), and a table is built only for an environment whose
# steps lead to more than leaves.
_REACHED = {
    ("add,sub,mul", 4): (1341, 1298, 1390, 84),
    ("add,sub,mul,div", 3): (143, 135, 144, 10),
}
# The cached tables and the child environments they name: every environment
# that had a table while the leaves' environments were still expanded.
_FORMER_TABLES = {("add,sub,mul", 4): 1081, ("add,sub,mul,div", 3): 119}


@pytest.fixture(scope="module", params=sorted(_REACHED))
def reached(request):
    ops, max_depth = request.param
    enum = _Enumerator(ops.split(","), DEFAULT_CONSTANTS)
    assert enum.find_witness(gen_exact(FamilyId("q", 2)), max_depth) is None
    states = [enum.states]
    enum.sweep_paths(enum.env0, enum.ctx0, _ONE_T, 0, max_depth, {}, set())
    states.append(enum.states)
    enum.count(enum.env0, enum.ctx0, max_depth)
    states.append(enum.states)
    return request.param, enum, states


def test_enumerator_counts_pinned(reached):
    param, enum, (witness, sweep, count) = reached
    assert (witness, sweep - witness, count - sweep,
            len(enum._computes_cache)) == _REACHED[param]


def _computes_from_scratch(enum, env):
    """Every pair of env in (op, i, j) order; the first pair per new value wins.

    Works on env's decoded values with the uncached arithmetic `_value`, so
    nothing here reads the enumerator's arithmetic table.
    """
    vals = [enum._vals[u] for u in env]
    first = {}
    for op in enum.ops:
        for i in range(len(vals)):
            for j in range(i if op in ("add", "mul") else 0, len(vals)):
                if op == "div" and not vals[j][0]:
                    continue
                v = _value(op, vals[i], vals[j])
                if v not in vals and v not in first:
                    first[v] = (op, vals[i], vals[j])
    return [(v, *first[v], tuple(sorted(vals + [v], key=_vkey)))
            for v in sorted(first, key=_vkey)]


def _decoded(enum, entry):
    """A computes entry (value, op, lhs, rhs, child env) with its ids decoded."""
    v, op, a, b, env2 = entry[:5]
    vals = enum._vals
    return (vals[v], op, vals[a], vals[b], tuple(vals[u] for u in env2))


def _translated(enum, other, env):
    """env's values as ids of the enumerator `other`."""
    return tuple(other._intern(enum._vals[u]) for u in env)


def _decoded_sem(enum, sem):
    """A witness with every value id decoded."""
    if sem is None or sem[0] == "leaf":
        return sem
    if sem[0] == "compute":
        _, v, op, lhs, rhs, sub = sem
        return ("compute", enum._vals[v], op, enum._vals[lhs], enum._vals[rhs],
                _decoded_sem(enum, sub))
    _, v, zsub, nsub = sem
    return ("branch", enum._vals[v], _decoded_sem(enum, zsub), _decoded_sem(enum, nsub))


def test_computes_and_new_values_match_from_scratch(reached):
    param, enum, _states = reached
    envs = list(enum._computes_cache)
    children = sorted({entry[4] for env in envs for entry in enum.computes(env)},
                      key=lambda env: [enum._keys[u] for u in env])
    assert len(set(children) | set(envs)) == _FORMER_TABLES[param]
    for env in envs:
        assert [_decoded(enum, entry) for entry in enum.computes(env)] == \
            _computes_from_scratch(enum, env)
    # the leaves' environments: counted, not built, both from a cached parent
    # table and by an enumerator with its own intern table and no table cached
    counter = _Enumerator(enum.ops, DEFAULT_CONSTANTS)
    for env in children:
        n = len(_computes_from_scratch(enum, env))
        assert enum._new_values(env) == n
        assert counter._new_values(_translated(enum, counter, env)) == n
    assert set(enum._computes_cache) == set(envs)
    assert not counter._computes_cache
    # built by an enumerator with its own intern table
    for env in children[::97]:
        fresh = _Enumerator(enum.ops, DEFAULT_CONSTANTS)
        assert [_decoded(fresh, entry)
                for entry in fresh.computes(_translated(enum, fresh, env))] == \
            _computes_from_scratch(enum, env)


def test_first_pair_order_within_an_op():
    # in env0 = (0, -1, 1, 2, x), -2 is 0 - 2 (pair (0, 3)) and -1 - 1 (pair
    # (1, 2)); the lower lhs index comes first
    enum = _Enumerator(("sub",), (-1, 0, 1, 2))
    [entry] = [e for e in enum.computes(enum.env0) if enum._vals[e[0]] == ((-2,), _ONE_T)]
    assert _decoded(enum, entry)[1:4] == ("sub", ((), _ONE_T), ((2,), _ONE_T))


def test_interned_tables_match_ratfunc_arithmetic(reached):
    # every interned arithmetic result against `trees`' DensePoly/RatFunc
    # arithmetic on the decoded operands, which shares no code with the
    # integer kernel
    _param, enum, _states = reached
    vals = enum._vals

    def ratfunc(v):
        return RatFunc(DensePoly(v[0]), DensePoly(v[1]))

    entries = [(op, *divmod(key, 1 << 32), k)
               for op, table in enum._arith_ids.items() for key, k in table.items()]
    assert len(entries) > len(vals) > len(enum.env0)
    for op, i, j, k in entries:
        assert ratfunc(vals[k]) == ratfunc(vals[i]).arith(op, ratfunc(vals[j]))
    # ids <-> values is a bijection, and each id's key and squarefree part
    # belong to its value
    assert len(set(vals)) == len(vals) == len(enum._ids) == len(enum._keys)
    assert all(enum._ids[v] == i for i, v in enumerate(vals))
    assert all(enum._keys[i] == _vkey(v) for i, v in enumerate(vals))
    assert enum._sfs
    for i, sf in enum._sfs.items():
        expect = squarefree_part(DensePoly(vals[i][0]))
        assert sf[-1] > 0 and DensePoly(sf) * Fraction(1, sf[-1]) == expect
    # every environment the enumerator holds is strictly sorted by _vkey
    envs = set(enum._computes_cache)
    envs.update(entry[4] for table in enum._computes_cache.values() for entry in table)
    envs.update(key[0] for key in enum._count_memo)
    envs.update(key[0] for key in enum._witness_memo)
    for env in envs:
        assert all(enum._keys[a] < enum._keys[b] for a, b in zip(env, env[1:]))
    # the split memo against a fresh split on an enumerator with empty caches
    fresh = _Enumerator(enum.ops, DEFAULT_CONSTANTS)
    splits = [(ctx, v, got) for ctx, memo in enum._splits.items()
              for v, got in memo.items()]
    assert splits
    for ctx, v, got in splits:
        num = vals[v][0]
        if len(num) < 2:  # a constant splits nothing
            assert got == (None, ctx)
        else:
            assert got == fresh.split_ctx(ctx, enum.sf(v))


def test_last_level_closed_form_matches_recursion(reached):
    # every budget-1 state against an explicit loop over its transitions into
    # budget-0 leaves, run on an enumerator whose memos and intern table the
    # closed form never saw
    param, enum, _states = reached
    oracle = _Enumerator(enum.ops, DEFAULT_CONSTANTS)
    counted = [(key, n) for key, n in enum._count_memo.items() if key[-1] == 1]
    assert counted
    for (env, kind, w, _budget), n in counted:
        env, ctx = _translated(enum, oracle, env), (kind, w)
        steps = sum(oracle.count(env2, ctx2, 0)
                    for *_, env2, ctx2 in oracle.steps(env, ctx))
        tests = sum(oracle.count(env, zctx, 0) * oracle.count(env, nctx, 0)
                    for _v, zctx, nctx in oracle.branches(env, ctx))
        assert n == 2 + steps + tests
    searched = [(key, w) for key, w in enum._witness_memo.items() if key[-1] == 1]
    assert searched
    for (env, kind, w, goal, _budget), found in searched:
        got = _witness_by_recursion(oracle, _translated(enum, oracle, env),
                                    (kind, w), goal)
        assert _decoded_sem(enum, found) == _decoded_sem(oracle, got)


def _witness_by_recursion(enum, env, ctx, goal):
    """The first budget-1 transition whose budget-0 children decide goal."""
    for v, op, lhs, rhs, env2, ctx2 in enum.steps(env, ctx):
        if ctx2 != ctx and len(enum.gcd(goal, enum.sf(rhs))) > 1:
            continue
        sub = enum.witness(env2, ctx2, goal, 0)
        if sub is not None:
            return ("compute", v, op, lhs, rhs, sub)
    for v, zctx, nctx in enum.branches(env, ctx):
        zgoal = enum.gcd(goal, zctx[1])
        ngoal = zquo(goal, zgoal)  # the goal's roots on the nonzero side
        zsub = enum.witness(env, zctx, zgoal, 0)
        nsub = enum.witness(env, nctx, ngoal, 0)
        if zsub is not None and nsub is not None:
            return ("branch", v, zsub, nsub)
    return None


def test_last_level_division_hole_decides():
    # on the inputs {0, 1}, 1/x punches out 0 and accepts exactly 1, which a
    # step at budget 1 finds before the branch on x
    enum = _Enumerator(("add", "sub", "mul", "div"), DEFAULT_CONSTANTS)
    x, one = ((0, 1), _ONE_T), ((1,), _ONE_T)
    found = enum.witness(enum.env0, ("fin", (0, -1, 1)), (-1, 1), 1)
    assert _decoded_sem(enum, found) == \
        ("compute", ((1,), (0, 1)), "div", one, x, ("leaf", True))


def test_report_target_squarefree_matches_squarefree_part():
    # repeated factors, non-unit content, a fractional coefficient, a constant
    for target in (P(12, -18, 0, 6),              # 6 (x - 1)^2 (x + 2)
                   P(0, 0, -4),                   # -4 x^2
                   P(Fraction(1, 2), -1, Fraction(1, 2)),  # (x - 1)^2 / 2
                   P(Fraction(-3, 4), Fraction(1, 3), 0, 5, 5),
                   P(-7)):
        report = enumerate_and_refute(target, 0)
        assert report.target_squarefree == squarefree_part(target)


def test_refute_with_division_enabled():
    # division adds values but still no decider of q2's roots at depth 2
    report = enumerate_and_refute(gen_exact(FamilyId("q", 2)), 2,
                                  ops=("add", "sub", "mul", "div"))
    assert report.refuted
    assert report.canonical_trees > count_canonical_trees(2)


# sha256 of the compact `refute-trees` report, recorded before the enumerator
# moved to the integer kernel; any change to a verdict, witness or count shows.
_TARGETS = {
    "q:2": "q:2",
    "6x^2-6x": ["0", "-6", "6"],
    "2x^4-2x^2": ["0", "0", "-2", "0", "2"],
    "x^3+x": ["0", "1", "0", "1"],
    "2x-1": ["-1", "2"],
    "x^2-2": ["-2", "0", "1"],
    "1013x^2-5x+3": ["3", "-5", "1013"],
}
_DIV = "add,sub,mul,div"
_GOLDEN = [
    ("q:2", 3, _DIV, 0, "9ef6a7a4fa620179beacf28e8c7d3dff5c07728348e6f149851a15b6d444baa7"),
    ("6x^2-6x", 3, _DIV, 1, "6dc4671a29f9c4bf4bfc57db2029c60da8047102f9a4f06e862f2af8f772cfcf"),
    ("2x^4-2x^2", 3, _DIV, 0, "d4d9133042770049f2947d2b768d493e5ad4dade560c512615ad3fa9c6000c69"),
    ("x^3+x", 3, _DIV, 0, "1ca824e46fef4ef1191cf459a75fb2a90c836ee0cdc0e32e8e2c1973ba431f62"),
    ("2x-1", 3, _DIV, 1, "067945b53f4be568ef9f3ecb81ca30b65778d4230b8122b30c0ed8fe1910b561"),
    ("x^2-2", 3, _DIV, 0, "41a0b55d1285ce382cb2a46ed29e6c07df7c29559494b8657a721494904d9edd"),
    ("1013x^2-5x+3", 3, _DIV, 0, "048baed6a0ff6879c25631445778a76852a2d3ea4b2fff7490107c0b9ed5e1e6"),
    ("q:2", 4, "add,sub,mul", 0, "27d315d67d70f91ab15a9235b8636525ebacee49523529e76e11036b4df8ebb1"),
    ("6x^2-6x", 4, "add,sub,mul", 1, "75101ead6c9467e8c6e153992cfafb2a97139a4828451c61422f4d0b1fd6a1c9"),
    ("x^2-2", 4, "add,sub,mul", 1, "bcbbc4350dd4bed860af54a46c195b07aff3f0df391f2fed4d3eaf79eb9ba1ae"),
]


@pytest.mark.parametrize("name,max_depth,ops,code,digest", _GOLDEN)
def test_refute_trees_report_bytes_golden(name, max_depth, ops, code, digest,
                                          tmp_path, monkeypatch, capsys):
    target = _TARGETS[name]
    if isinstance(target, list):
        # a relative path, because the report embeds the target as given
        monkeypatch.chdir(tmp_path)
        (tmp_path / "target.json").write_text(
            json.dumps({"repr": "dense", "coeffs": target}))
        target = "target.json"
    got = main(["refute-trees", "--target", target, "--max-depth", str(max_depth),
                "--ops", ops])
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
