"""Command-line surface: JSON reports over the library, reproducible byte for byte.

Every report embeds the input that produced it and the library version;
identical inputs yield identical bytes. Numeric payloads that can outgrow
64-bit integers (coefficients, valuations, tree counts) are decimal strings.
Exit codes: 0 success/certified, 1 failed certification or refutation
witness found, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import __version__
from .certificates import (
    DEFAULT_SUBSET_BUDGET,
    CertificateError,
    gap_condition,
    make_certificate,
    nonuniform_threshold,
    subset_sums_distinct,
    uniform_threshold,
)
from .enumeration import enumerate_and_refute
from .families import (
    DEFAULT_BIT_BUDGET,
    MAX_VALUATION_BITS,
    RepresentationInfeasible,
    gen_exact,
    gen_valued,
    parse_family,
)
from .polygon import PolygonError, polygon_report, root_valuation_profile
from .polynomials import (
    DensePoly,
    PolynomialError,
    ValuedPoly,
    coefficient_valuations,
    poly_from_json,
    poly_to_json,
)
from .trees import TreeError
from .valuation import ValuationError, format_rational, parse_rational

_FAMILY_RE = re.compile(r"^[pqx]:\d+$")


class UsageError(ValueError):
    pass


def _dump(report: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _load_poly_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return poly_from_json(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read polynomial file {path}: {exc}") from exc
    except (json.JSONDecodeError, KeyError) as exc:
        raise UsageError(f"bad polynomial file {path}: {exc}") from exc


def _valued_input(args) -> "tuple[ValuedPoly, dict]":
    """Resolve --family/--poly (+ --prime) into a ValuedPoly and the input record."""
    if bool(args.family) == bool(args.poly):
        raise UsageError("exactly one of --family and --poly is required")
    if args.family:
        fid = parse_family(args.family)
        if args.prime not in (None, 2):
            raise UsageError("family polynomials are 2-adic; --prime must be 2")
        return gen_valued(fid), {"family": str(fid)}
    poly = _load_poly_file(args.poly)
    if isinstance(poly, ValuedPoly):
        if args.prime is not None and args.prime != int(poly.prime):
            raise UsageError(
                f"--prime {args.prime} conflicts with the file's prime {int(poly.prime)}")
        return poly, {"poly": args.poly, "prime": int(poly.prime)}
    prime = 2 if args.prime is None else args.prime
    return coefficient_valuations(poly, prime), {"poly": args.poly, "prime": prime}


def _cmd_polygon(args) -> "tuple[dict, int]":
    vp, given = _valued_input(args)
    report = polygon_report(vp)
    report["input"] = {"command": "polygon", **given}
    return report, 0


def _cmd_profile(args) -> "tuple[dict, int]":
    vp, given = _valued_input(args)
    profile = root_valuation_profile(vp)
    report = {
        "profile": [[format_rational(v), m] for v, m in profile.entries],
        "zero_roots": profile.zero_root_multiplicity,
        "degree": vp.degree,
        "input": {"command": "profile", **given},
    }
    return report, 0


def _check_T(T: int) -> None:
    if not 1 <= T <= MAX_VALUATION_BITS:
        raise UsageError(f"--T must be between 1 and {MAX_VALUATION_BITS}")


def _cmd_certify(args) -> "tuple[dict, int]":
    _check_T(args.T)
    fid = parse_family(args.family)
    vp = gen_valued(fid)
    D = 1 << args.T
    cert = make_certificate(vp, D=D, constant=args.constant)
    thresholds = {"uniform": None, "nonuniform": None}
    if fid.kind == "q":
        thresholds["uniform"] = uniform_threshold(args.T)
    else:
        thresholds["nonuniform"] = nonuniform_threshold(args.T, args.constant)
    report = {
        "family": str(fid),
        "conditions": [cert.condition1_holds, cert.condition2_holds],
        "constant": cert.constant,
        "D": f"2^{args.T}",
        "bound_L": cert.bound_ceiling,
        "bound_L_approx": None if cert.bound_approx is None
        else format_rational(cert.bound_approx),
        "subsequence_length": cert.d,
        "gap_values": None if cert.gap_values is None
        else [format_rational(v) for v in cert.gap_values],
        "gap_condition": cert.gap_condition_holds,
        "subset_sum_count": cert.subset_sum_count,
        "subset_sums_distinct": cert.subset_sums_all_distinct,
        "gap_anomaly": cert.gap_anomaly,
        "thresholds": thresholds,
        "input": {"command": "certify", "family": str(fid), "T": args.T,
                  "constant": args.constant},
    }
    return report, 0 if cert.conditions_hold else 1


def _cmd_subset_sums(args) -> "tuple[dict, int]":
    try:
        values = [parse_rational(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --values: {exc}") from exc
    if not values:
        raise UsageError("--values must list at least one rational")
    if not 0 <= args.budget <= DEFAULT_SUBSET_BUDGET:
        raise UsageError(f"--budget must be between 0 and {DEFAULT_SUBSET_BUDGET}")
    count, distinct = subset_sums_distinct(values, budget=args.budget)
    report = {
        "count": count,
        "gap_condition": gap_condition(values),
        "distinct": distinct,
        "input": {"command": "subset-sums", "values": args.values,
                  "budget": args.budget},
    }
    return report, 0


def _cmd_thresholds(args) -> "tuple[dict, int]":
    _check_T(args.T)
    report = {
        "uniform": uniform_threshold(args.T),
        "nonuniform": nonuniform_threshold(args.T, args.constant),
        "input": {"command": "thresholds", "T": args.T, "constant": args.constant},
    }
    return report, 0


def _cmd_gen(args) -> "tuple[dict, int]":
    fid = parse_family(args.family)
    if args.repr == "valued":
        poly = gen_valued(fid)
    else:
        poly = gen_exact(fid, bit_budget=args.bit_budget)
    report = poly_to_json(poly)
    report["input"] = {"command": "gen", "family": str(fid), "repr": args.repr,
                       "bit_budget": args.bit_budget}
    return report, 0


def _cmd_refute_trees(args) -> "tuple[dict, int]":
    if _FAMILY_RE.match(args.target.strip().lower()):
        fid = parse_family(args.target)
        target = gen_exact(fid)
        target_given = str(fid)
    else:
        poly = _load_poly_file(args.target)
        if not isinstance(poly, DensePoly):
            raise UsageError("refutation targets need exact coefficients (dense repr)")
        target = poly
        target_given = args.target
    if args.max_states < 0:
        raise UsageError("--max-states must be >= 0")
    ops = tuple(op.strip() for op in args.ops.split(",") if op.strip())
    if not ops:
        raise UsageError("--ops must name at least one operation")
    try:
        constants = tuple(parse_rational(c) for c in args.constants.split(",") if c.strip())
    except ValueError as exc:
        raise UsageError(f"bad --constants: {exc}") from exc
    result = enumerate_and_refute(target, args.max_depth, ops=ops,
                                  constants=constants, max_states=args.max_states)
    report = result.to_json()
    report["input"] = {
        "command": "refute-trees",
        "target": target_given,
        "max_depth": args.max_depth,
        "ops": args.ops,
        "constants": args.constants,
        "max_states": args.max_states,
    }
    if result.decided or result.inconclusive:
        return report, 1
    return report, 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newtonbench",
        description="Newton polygons, root-valuation profiles, lower-bound "
                    "certificates and computation-tree refutation, all exact.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_valued_flags(p):
        p.add_argument("--family", help="family spec like q:5, p:3, x:2")
        p.add_argument("--poly", help="polynomial JSON file")
        p.add_argument("--prime", type=int, help="prime for dense input (default 2)")

    p = sub.add_parser("polygon", help="Newton polygon report")
    add_valued_flags(p)

    p = sub.add_parser("profile", help="root-valuation profile report")
    add_valued_flags(p)

    p = sub.add_parser("certify", help="lower-bound certificate for a family")
    p.add_argument("--family", required=True)
    p.add_argument("--T", type=int, required=True, help="time bound exponent; D = 2^T")
    p.add_argument("--constant", type=int, default=28, choices=(28, 21))

    p = sub.add_parser("subset-sums", help="distinct subset sums and the gap condition")
    p.add_argument("--values", required=True, help="comma-separated decreasing rationals")
    p.add_argument("--budget", type=int, default=DEFAULT_SUBSET_BUDGET,
                   help=f"at most 2^budget sums, budget <= {DEFAULT_SUBSET_BUDGET}")

    p = sub.add_parser("thresholds", help="contradiction thresholds for a time exponent")
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--constant", type=int, default=28, choices=(28, 21))

    p = sub.add_parser("gen", help="emit a family polynomial as JSON")
    p.add_argument("--family", required=True)
    p.add_argument("--repr", default="valued", choices=("exact", "valued"))
    p.add_argument("--bit-budget", type=int, default=DEFAULT_BIT_BUDGET)

    p = sub.add_parser("refute-trees",
                       help="exhaustively search small trees deciding a zero set")
    p.add_argument("--target", required=True, help="polynomial JSON file or family spec")
    p.add_argument("--max-depth", type=int, required=True)
    p.add_argument("--ops", default="add,sub,mul")
    p.add_argument("--constants", default="0,1")
    p.add_argument("--max-states", type=int, default=5_000_000,
                   help="budget of expanded enumerator states over all phases; "
                        "terminal states (leaves, paths at the depth bound) are "
                        "not counted")

    for name, cmd in sub.choices.items():
        cmd.add_argument("--pretty", action="store_true",
                         help="indented JSON instead of compact")
    return parser


_HANDLERS = {
    "polygon": _cmd_polygon,
    "profile": _cmd_profile,
    "certify": _cmd_certify,
    "subset-sums": _cmd_subset_sums,
    "thresholds": _cmd_thresholds,
    "gen": _cmd_gen,
    "refute-trees": _cmd_refute_trees,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _HANDLERS[args.command](args)
    except (UsageError, CertificateError, PolygonError, PolynomialError,
            RepresentationInfeasible, TreeError, ValuationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report["version"] = __version__
    sys.stdout.write(_dump(report, args.pretty))
    return code


if __name__ == "__main__":
    sys.exit(main())
