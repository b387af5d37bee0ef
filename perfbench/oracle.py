"""Independent oracle for the benchmark: every report is checked against it.

Nothing here imports the library. Polynomials are plain lists of ints or
Fractions (index i holds the coefficient of x^i); Newton polygons come from
a separate lower-hull routine over closed-form valuations. Decimal strings
longer than Python's default int/str conversion limit are parsed in chunks,
so a report the library manages to print can always be checked without
raising that limit for the process.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# Stay under the interpreter's default 4300-digit int/str conversion limit.
_CHUNK = 4000

# The report's subset-sum budget: `certify` counts subset sums only for a gap
# list of at most this many values and reports null count and distinctness
# for a longer one (the CLI exposes no option to change it).
SUBSET_BUDGET = 24


class CheckFailed(Exception):
    """A report disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- numbers -------------------------------------------------------------------

def parse_int(s: str) -> int:
    s = s.strip()
    neg = s.startswith("-")
    digits = s[1:] if neg else s
    if not digits.isdigit():
        raise CheckFailed(f"not an integer: {s[:40]!r}")
    value = 0
    for k in range(0, len(digits), _CHUNK):
        chunk = digits[k:k + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if neg else value


def parse_rat(s: str) -> Fraction:
    num, sep, den = s.partition("/")
    if not sep:
        return Fraction(parse_int(num))
    return Fraction(parse_int(num), parse_int(den))


def rats(items: Sequence[str]) -> List[Fraction]:
    return [parse_rat(s) for s in items]


# -- polynomials as coefficient lists ------------------------------------------

def trim(a: List) -> List:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a: Sequence, b: Sequence) -> List:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def ppow(a: Sequence, e: int) -> List:
    out: List = [1]
    for _ in range(e):
        out = pmul(out, a)
    return out


def monic(a: Sequence) -> List[Fraction]:
    lead = Fraction(a[-1])
    return [Fraction(c) / lead for c in a]


def peval(a: Sequence, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def dense_json(coeffs: Sequence[int]) -> dict:
    return {"repr": "dense", "coeffs": [str(c) for c in coeffs]}


# -- Newton polygons -------------------------------------------------------------

def lower_hull(points: Sequence[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    """Vertices of the lower convex hull of index-sorted points, collinear ones dropped."""
    hull: List[Tuple[int, Fraction]] = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # keep the middle point only if it lies strictly below the chord
            if (y1 - y0) * (x - x0) >= (y - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def newton(points: Sequence[Tuple[int, Fraction]]) -> Dict[str, list]:
    """Polygon of the (index, valuation) points: vertices, slopes, root profile."""
    vertices = lower_hull([(i, Fraction(v)) for i, v in points])
    slopes = [((vj - vi) / (j - i), j - i)
              for (i, vi), (j, vj) in zip(vertices, vertices[1:])]
    return {
        "vertices": vertices,
        "slopes": slopes,
        "profile": [(-s, m) for s, m in slopes],
        "zero_roots": vertices[0][0],
    }


def family_valuations(kind: str, d: int) -> List[Tuple[int, int]]:
    """Closed-form 2-adic coefficient valuations of the q, p and x families."""
    if kind == "q":
        return [(i, 1 << i) for i in range(d + 1)]
    if kind == "p":
        return [(i, 1 << (d * (d - i))) for i in range(d + 1)]
    # x: the monic polynomial with roots 2^(2^(d*i)), whose root valuations
    # 2^(d*i) are distinct, so coefficient k has the sum of the (d+1-k)
    # smallest ones as its valuation.
    roots = [1 << (d * i) for i in range(d + 1)]
    return [(k, sum(roots[:d + 1 - k])) for k in range(d + 2)]


def family_coeffs(kind: str, d: int) -> List[int]:
    """Exact coefficients of q:d or p:d (small d only: these are 2^(2^e))."""
    if kind == "q":
        return [1 << (1 << i) for i in range(d + 1)]
    return [1 << (1 << (d * (d - i))) for i in range(d + 1)]


def x_points(d: int) -> List[int]:
    return [1 << (1 << (d * i)) for i in range(d + 1)]


# -- report checks ----------------------------------------------------------------

def check_polygon(report: dict, points: Sequence[Tuple[int, int]]) -> None:
    want = newton(points)
    got_vertices = [(int(i), parse_rat(v)) for i, v in report["vertices"]]
    expect(got_vertices == want["vertices"], "polygon vertices differ from the oracle hull")
    got_slopes = [(parse_rat(s), int(m)) for s, m in report["slopes"]]
    expect(got_slopes == want["slopes"], "polygon slopes differ from the oracle hull")
    check_profile(report, points)


def check_profile(report: dict, points: Sequence[Tuple[int, int]]) -> None:
    want = newton(points)
    got = [(parse_rat(v), int(m)) for v, m in report["profile"]]
    expect(got == want["profile"], "root-valuation profile differs from the oracle")
    expect(report["zero_roots"] == want["zero_roots"], "zero-root count differs")


def distinct_subset_sums(values: Sequence[Fraction]) -> int:
    sums = {Fraction(0)}
    for v in values:
        sums |= {s + v for s in sums}
    return len(sums)


def gap_condition(values: Sequence[Fraction]) -> bool:
    return all(2 * abs(values[j + 1] - values[j]) < abs(values[j] - values[j - 1])
               for j in range(1, len(values) - 1))


def powers_of_two(values: Sequence[Fraction]) -> bool:
    """Distinct positive powers of two: their subset sums are distinct (binary)."""
    ints = [v.numerator for v in values if v.denominator == 1 and v > 0]
    return (len(ints) == len(values) and len(set(ints)) == len(ints)
            and all(n & (n - 1) == 0 for n in ints))


def expected_subset_count(values: Sequence[Fraction]) -> int:
    if powers_of_two(values):
        return 1 << len(values)
    if len(values) > 16:
        raise CheckFailed("no oracle for a long gap list that is not powers of two")
    return distinct_subset_sums(values)


def check_certificate(report: dict, code: int, kind: str, d: int, T: int,
                      constant: int) -> None:
    """Lemma conditions, exact bound, gap list and subset-sum count, recomputed."""
    points = family_valuations(kind, d)
    poly = newton(points)
    roots: List[Fraction] = []
    for v, m in poly["profile"]:  # already largest valuation first
        roots.extend([v] * m)
    n_roots = poly["zero_roots"] + len(roots)
    expect(poly["zero_roots"] == 0, "oracle expects no roots at zero")
    cond1 = roots[-1] >= 1
    cond2 = all(a >= 2 * b for a, b in zip(roots, roots[1:]))
    expect(report["conditions"] == [cond1, cond2], "lemma conditions differ")
    expect(code == (0 if cond1 and cond2 else 1), f"exit code {code} contradicts the conditions")
    expect(report["subsequence_length"] == n_roots, "subsequence length differs")
    if cond1 and cond2:
        # least L >= 1 with L^2 * (constant * T + 1) >= d
        L = 1
        while L * L * (constant * T + 1) < n_roots:
            L += 1
        expect(report["bound_L"] == L, f"bound_L {report['bound_L']} != {L}")
    else:
        expect(report["bound_L"] is None, "bound reported although a condition fails")
    corners = [v for _, v in poly["vertices"]]
    if all(a > b for a, b in zip(corners, corners[1:])):
        got = rats(report["gap_values"])
        expect(got == corners, "gap values differ from the hull-corner valuations")
        expect(report["gap_condition"] == gap_condition(corners), "gap condition differs")
        if len(corners) > SUBSET_BUDGET:
            expect(report["subset_sum_count"] is None and report["subset_sums_distinct"] is None,
                   f"subset sums counted for {len(corners)} gap values, over the budget")
            return
        count = expected_subset_count(corners)
        expect(report["subset_sum_count"] == count,
               f"subset-sum count {report['subset_sum_count']} != {count}")
        expect(report["subset_sums_distinct"] == (count == 1 << len(corners)),
               "subset-sum distinctness differs")
    else:
        expect(report["gap_values"] is None, "gap values for a non-decreasing corner list")


def check_refutation(report: dict, target: Sequence[int], depth: int, div: bool) -> None:
    """A refutation must carry the target-independent tree and path counts."""
    trees, paths = REFUTATION_COUNTS[(depth, div)]
    expect(report["refuted"] is True and report["decided"] is False,
           "refutation target was not refuted")
    expect(report["inconclusive"] is False, "refutation was inconclusive")
    expect(report["canonical_trees"] == str(trees), "canonical tree count differs")
    expect(report["generic_path_classes"] == str(paths), "generic path classes differ")
    expect(report["divisibility_failures"] == report["generic_path_classes"],
           "some generic path is divisible by the target")
    check_squarefree(report, monic(target))


def check_squarefree(report: dict, want: Sequence[Fraction]) -> None:
    got = rats(report["target_squarefree"]["coeffs"])
    expect(got == list(want), "squarefree part differs from the oracle")


# Canonical-tree count and generic-path classes over env {x, 0, 1}; they do
# not depend on the target. Keyed by (depth, division enabled).
REFUTATION_COUNTS = {
    (3, False): (70544, 34),
    (4, False): (40546854, 181),
    (3, True): (102458, 35),
}
