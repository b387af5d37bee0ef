"""Seeded job generation for the three benchmark workloads.

A workload is a list of rounds; a round is a fixed mix of CLI jobs whose
inputs (targets, sizes, coefficients) are drawn from a generator seeded by
(workload, seed, round). Every round of a workload has the same job kinds
in the same order, so run-level statistics do not depend on where a run
stops. Each job carries its own check against the oracle module.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from oracle import expect

WORKLOADS = ("refute", "decide", "families")

# Rounds of inputs generated in set-up; a run that needs more reuses them.
ROUNDS = 100

# The known failure: printing an integer longer than the interpreter's
# int/str conversion limit raises ValueError with this text.
KNOWN_CRASH = "integer string conversion"


@dataclass(frozen=True)
class Probe:
    """Inputs for running the enumerator phase functions on a job's target."""

    target: Tuple[int, ...]
    depth: int
    ops: Tuple[str, ...]
    constants: Tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: Tuple[str, ...]
    check: Callable[[dict, int], None]
    probe: Optional[Probe] = None
    known_crash: bool = False


@dataclass
class Round:
    jobs: List[Job]
    files: Dict[str, str]  # input files the jobs read: path -> JSON text
    written: bool = False

    def write_inputs(self) -> None:
        """Write the input files once, before the round first runs."""
        if not self.written:
            for path, text in self.files.items():
                Path(path).parent.mkdir(parents=True, exist_ok=True)
                Path(path).write_text(text, encoding="utf-8")
            self.written = True


def prepare(workload: str, seed: int, workdir: Path, tiny: bool = False,
            rounds: int = ROUNDS) -> List[Round]:
    """Generate `rounds` rounds of jobs; their input files go under workdir when written."""
    build = {"refute": _refute_round, "decide": _decide_round,
             "families": _families_round}[workload]
    out = []
    for r in range(rounds):
        files: Dict[str, str] = {}
        jobs = build(random.Random(f"{workload}:{seed}:{r}"), workdir / f"r{r}", tiny, files)
        out.append(Round(jobs, files))
    return out


def _input(files: Dict[str, str], path: str, obj: dict) -> str:
    files[path] = json.dumps(obj)
    return path


def _code(want: int, code: int) -> None:
    expect(code == want, f"exit code {code}, expected {want}")


# -- refute -----------------------------------------------------------------------

def _hard_quadratic(rng: random.Random) -> List[int]:
    """Irreducible primitive quadratic with |leading| >= 1000.

    A depth-4 tree over {x, 0, 1} only tests polynomials whose coefficients
    stay far below 1000, and by Gauss's lemma an irreducible factor of such
    a test has a leading coefficient dividing the test's; so no test
    vanishes on these roots and no tree decides them.
    """
    while True:
        c = [rng.choice((-1, 1)) * rng.randint(1000, 9999) for _ in range(3)]
        disc = c[1] * c[1] - 4 * c[0] * c[2]
        if gcd(*c) == 1 and not (disc >= 0 and isqrt(disc) ** 2 == disc):
            return c


def _hard_linear(rng: random.Random) -> List[int]:
    """b*x + a, coprime, |a|, |b| >= 1000: its root is out of reach for the same reason."""
    while True:
        a, b = (rng.choice((-1, 1)) * rng.randint(1000, 9999) for _ in range(2))
        if gcd(a, b) == 1:
            return [a, b]


def _refute_job(kind: str, target_arg: str, target: List[int], depth: int,
                div: bool) -> Job:
    ops = ("add", "sub", "mul", "div") if div else ("add", "sub", "mul")
    argv = ["refute-trees", "--target", target_arg, "--max-depth", str(depth)]
    if div:
        argv += ["--ops", ",".join(ops)]

    def check(report: dict, code: int) -> None:
        _code(0, code)
        oracle.check_refutation(report, target, depth, div)

    return Job(kind, tuple(argv), check, Probe(tuple(target), depth, ops))


def _refute_round(rng: random.Random, stem: Path, tiny: bool,
                  files: Dict[str, str]) -> List[Job]:
    depth = 3 if tiny else 4
    quad = _hard_quadratic(rng)
    cubic = oracle.pmul(_hard_quadratic(rng), _hard_linear(rng))
    quad_file = _input(files, f"{stem}-quad.json", oracle.dense_json(quad))
    cubic_file = _input(files, f"{stem}-cubic.json", oracle.dense_json(cubic))
    div_file, div_target = (quad_file, quad) if rng.random() < 0.5 else (cubic_file, cubic)
    # one fast division job to three depth-4 ones: the median and the tail
    # both fall inside the depth-4 block, not on the edge between job kinds
    return [
        _refute_job("refute q:2", "q:2", [2, 4, 16], depth, False),
        _refute_job("refute quadratic", quad_file, quad, depth, False),
        _refute_job("refute cubic", cubic_file, cubic, depth, False),
        _refute_job("refute div depth 3", div_file, div_target, 3, True),
    ]


# -- decide -----------------------------------------------------------------------

# Zero sets with a decider within depth 4 over {x, 0, 1} and add/sub/mul:
# (irreducible factors, rational roots). Grouped by the depth of the
# straight-line program plus branch that decides them, shallow to deep. A
# round takes one target per group and a second from the deepest group, so
# every round has the same cost mix: the median falls among the three
# cheaper groups, which cost about the same, and the tail inside the deepest.
_DECIDE_GROUPS = (
    (([[0, 1]], [0]), ([[-1, 1]], [1]), ([[1, 1]], [-1])),
    (([[-2, 1]], [2]), ([[-1, 2]], [Fraction(1, 2)]), ([[0, 1], [-1, 1]], [0, 1]),
     ([[0, 1], [1, 1]], [0, -1]), ([[-1, 1], [1, 1]], [1, -1])),
    (([[0, 1], [-2, 1]], [0, 2]), ([[0, 1], [2, 1]], [0, -2]), ([[-2, 0, 1]], []),
     ([[-1, -1, 1]], [])),
    (([[0, 1], [-1, 1], [1, 1]], [0, 1, -1]), ([[-1, 1], [1, 1, 1]], [1]),
     ([[0, 1], [1, 0, 1]], [0])),
)
# Tiny runs decide at depth 3 and so draw from the shallow groups only.
_TINY_GROUPS = (_DECIDE_GROUPS[0], _DECIDE_GROUPS[1])

_LEADS = (2, 3, 5, 6, 7, 10, 12)


def _decide_round(rng: random.Random, stem: Path, tiny: bool,
                  files: Dict[str, str]) -> List[Job]:
    depth = 3 if tiny else 4
    jobs = []
    groups = _TINY_GROUPS if tiny else _DECIDE_GROUPS + _DECIDE_GROUPS[-1:]
    for k, group in enumerate(groups):
        g = min(k, 3)
        factors, roots = rng.choice(group)
        # repeated factors and a non-unit leading coefficient make the
        # squarefree reduction do real work
        target = [rng.choice((-1, 1)) * rng.choice(_LEADS)]
        for f in factors:
            target = oracle.pmul(target, oracle.ppow(f, rng.randint(1, 3)))
        squarefree = [1]
        for f in factors:
            squarefree = oracle.pmul(squarefree, f)
        # `roots` lists every rational root of the factors
        nonroots = [Fraction(n) for n in range(-5, 6) if n not in roots]
        while len(nonroots) < 14:
            q = Fraction(rng.randint(-40, 40), rng.randint(2, 7))
            if q not in roots and q not in nonroots:
                nonroots.append(q)
        path = _input(files, f"{stem}-{k}.json", oracle.dense_json(target))
        argv = ("refute-trees", "--target", path, "--max-depth", str(depth))
        jobs.append(Job(f"decide group {g}", argv,
                        _decide_check(depth, squarefree, roots, nonroots),
                        Probe(tuple(target), depth, ("add", "sub", "mul"))))
    return jobs


def _decide_check(depth: int, squarefree: List[int], roots: List, nonroots: List):
    def check(report: dict, code: int) -> None:
        from newtonbench import trees  # the plain rational interpreter

        _code(1, code)
        expect(report["decided"] is True and report["refuted"] is False,
               "decidable target was not decided")
        expect(report["witness_depth"] is not None and report["witness_depth"] <= depth,
               "witness deeper than the budget")
        oracle.check_squarefree(report, oracle.monic(squarefree))
        tree = trees.parse_tree(report["witness"])
        for r in roots:
            expect(trees.accepts(tree, r), f"witness rejects the root {r}")
        for x in nonroots:
            expect(not trees.accepts(tree, x), f"witness accepts the non-root {x}")
    return check


# -- families ----------------------------------------------------------------------

def _polygon_job(kind: str, argv: List[str], fam: str, d: int) -> Job:
    def check(report: dict, code: int) -> None:
        _code(0, code)
        oracle.check_polygon(report, oracle.family_valuations(fam, d))
    return Job(kind, tuple(argv), check)


def _profile_job(fam: str, d: int) -> Job:
    def check(report: dict, code: int) -> None:
        _code(0, code)
        oracle.check_profile(report, oracle.family_valuations(fam, d))
        expect(report["degree"] == oracle.family_valuations(fam, d)[-1][0], "degree differs")
    return Job(f"profile {fam}", ("profile", "--family", f"{fam}:{d}"), check)


def _certify_job(kind: str, fam: str, d: int, T: int, constant: int,
                 known_crash: bool = False) -> Job:
    def check(report: dict, code: int) -> None:
        oracle.check_certificate(report, code, fam, d, T, constant)
    argv = ("certify", "--family", f"{fam}:{d}", "--T", str(T), "--constant", str(constant))
    return Job(kind, argv, check, known_crash=known_crash)


def _gen_exact_job(kind: str, fam: str, d: int, known_crash: bool = False) -> Job:
    def check(report: dict, code: int) -> None:
        _code(0, code)
        coeffs = [oracle.parse_rat(c) for c in report["coeffs"]]
        if fam == "x":
            expect(len(coeffs) == d + 2 and coeffs[-1] == 1, "x family is monic of degree d+1")
            for pt in oracle.x_points(d):
                expect(oracle.peval(coeffs, pt) == 0, "an x-family point is not a root")
        else:
            expect(coeffs == oracle.family_coeffs(fam, d), "exact coefficients differ")
    argv = ("gen", "--family", f"{fam}:{d}", "--repr", "exact")
    return Job(kind, argv, check, known_crash=known_crash)


def _gen_valued_job(fam: str, d: int) -> Job:
    def check(report: dict, code: int) -> None:
        _code(0, code)
        want = oracle.family_valuations(fam, d)
        got = [(int(i), oracle.parse_rat(v)) for i, v in report["entries"]]
        expect(report["prime"] == 2 and report["degree"] == want[-1][0], "valued header differs")
        expect(got == [(i, Fraction(v)) for i, v in want], "valued entries differ")
    return Job(f"gen {fam} valued", ("gen", "--family", f"{fam}:{d}"), check)


def _subset_sums_job(rng: random.Random, n: int) -> Job:
    # superincreasing values have distinct subset sums: the count must be 2^n
    values: List[int] = []
    for _ in range(n):
        values.append(sum(values) + rng.randint(1, 5))
    values.reverse()
    fvals = [Fraction(v) for v in values]

    def check(report: dict, code: int) -> None:
        _code(0, code)
        expect(report["count"] == 1 << n, f"subset-sum count {report['count']} != 2^{n}")
        expect(report["distinct"] is True, "distinct sums reported as colliding")
        expect(report["gap_condition"] == oracle.gap_condition(fvals), "gap condition differs")
    return Job("subset-sums", ("subset-sums", "--values", ",".join(map(str, values))), check)


def _thresholds_job(T: int, constant: int) -> Job:
    def check(report: dict, code: int) -> None:
        _code(0, code)
        expect(report["uniform"] == T * T + 3, "uniform threshold differs")
        expect(report["nonuniform"] == constant * T * T * (T + 1) + 1,
               "non-uniform threshold differs")
    argv = ("thresholds", "--T", str(T), "--constant", str(constant))
    return Job("thresholds", argv, check)


def _families_round(rng: random.Random, stem: Path, tiny: bool,
                    files: Dict[str, str]) -> List[Job]:
    big_q = 300 if tiny else 3000
    p_big = 10 if tiny else 16  # gap list of p_big + 1 values: 2^17 subset sums
    dp = rng.randint(10, 20) if tiny else rng.randint(40, 80)
    dx = rng.randint(5, 10) if tiny else rng.randint(30, 60)
    dq = rng.randint(8, 13)  # exact q:13 coefficients stay under 2,500 digits
    dense_file = _input(files, f"{stem}-q{dq}.json",
                        oracle.dense_json(oracle.family_coeffs("q", dq)))
    small_fam = rng.choice(("q", "x"))
    small_d = rng.randint(4, 12) if small_fam == "q" else rng.randint(3, 8)
    return [
        _polygon_job("polygon q:3000", ["polygon", "--family", f"q:{big_q}"], "q", big_q),
        _polygon_job("polygon p", ["polygon", "--family", f"p:{dp}"], "p", dp),
        _profile_job("x", dx),
        _gen_exact_job("gen q exact", "q", dq),
        _polygon_job("polygon dense q file", ["polygon", "--poly", dense_file, "--prime", "2"],
                     "q", dq),
        _polygon_job("polygon q valued", ["polygon", "--family", f"q:{dq}"], "q", dq),
        _certify_job("certify p:400 T8", "p", 400, 8, 28, known_crash=True),
        _certify_job("certify p 2^17 sums", "p", p_big, 3, 28),
        _certify_job("certify small q or x", small_fam, small_d, rng.randint(1, 4),
                     rng.choice((28, 21))),
        _gen_exact_job("gen x:4 exact", "x", 4, known_crash=True),
        _gen_exact_job("gen x:3 exact", "x", 3),
        _gen_valued_job("p", rng.randint(20, 60)),
        _subset_sums_job(rng, rng.randint(6, 8) if tiny else rng.randint(10, 14)),
        _thresholds_job(rng.randint(1, 12), rng.choice((28, 21))),
        _profile_job("q", rng.randint(100, 500)),
    ]


def describe_failure(exc: BaseException, job: Job) -> Tuple[str, bool]:
    """(label, expected): expected only for the documented int/str-limit crash."""
    known = (job.known_crash and isinstance(exc, ValueError)
             and KNOWN_CRASH in str(exc))
    return type(exc).__name__, known

