"""Compare two result sets of the benchmark, parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --run PARENT_DIR CHANGE_DIR --seeds 1-10 --out DIR

The first form compares files of the records `run.py --out FILE` appends,
one per run; only untraced runs are compared. The second form first makes
those files, DIR/parent.jsonl and DIR/change.jsonl: for each seed and
workload it runs `perfbench/run.py` of both checkouts back to back,
alternating which side goes first (ABAB), with the run length of
BENCHMARK.json. A host whose speed drifts over minutes then moves both runs
of a pair alike.

Runs are paired by seed when the seeds match, else in file order. For each
workload and end-to-end metric it prints each side's median and quartiles,
the share of pairs each side won (ties count for neither), the paired ratio
`change / parent` (`parent / change` for a higher-is-better metric, so a
ratio above 1 always means the change is worse) with its quartiles, and a
verdict against the metric's bound in BENCHMARK.json. The paired spread is
the ratio's interquartile range.

  unresolved  the paired spread is wider than the bound and the change does
              not beat the parent outright (every change run better than
              every parent run, which reads as improved);
  improved    the change wins at least 90% of pairs and its median paired
              gain, 1 - ratio, exceeds the paired spread;
  worse       the median paired ratio is above 1 + bound;
  unchanged   otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, Dict[str, List[Tuple[int, float]]]]:
    """workload -> metric -> [(seed, value)] in file order."""
    out: Dict[str, Dict[str, list]] = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"] or rec.get("tiny"):
                continue
            for name, metric in rec["result"]["metrics"].items():
                out[rec["workload"]][name].append((rec["seed"], metric["value"]))
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent: List[Tuple[int, float]], change: List[Tuple[int, float]]):
    p, c = dict(parent), dict(change)
    common = sorted(set(p) & set(c))
    if common and len(p) == len(parent) and len(c) == len(change):
        return [(p[s], c[s]) for s in common]
    return [(a[1], b[1]) for a, b in zip(parent, change)]


def worse_ratio(p: float, c: float, better: str) -> float:
    """Above 1 when the change is worse than the parent."""
    num, den = (c, p) if better == "lower" else (p, c)
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def verdict(parent: List[float], change: List[float], matched: List[Tuple[float, float]],
            better: str, bound: float) -> Tuple[str, int, int, Tuple[float, float, float]]:
    sign = 1.0 if better == "higher" else -1.0  # sign * (x - y) > 0: x is better
    wins_change = sum(1 for p, c in matched if sign * (c - p) > 0)
    wins_parent = sum(1 for p, c in matched if sign * (p - c) > 0)
    q1, ratio, q3 = quartiles([worse_ratio(p, c, better) for p, c in matched])
    spread = q3 - q1
    outright = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound:
        result = "improved" if outright else "unresolved"
    elif wins_change >= WIN_SHARE * len(matched) and 1 - ratio > spread:
        result = "improved"
    elif ratio - 1 > bound:
        result = "worse"
    else:
        result = "unchanged"
    return result, wins_parent, wins_change, (q1, ratio, q3)


def report(parent_file: Path, change_file: Path, spec: dict) -> None:
    parent, change = load(parent_file), load(change_file)
    print(f"{'workload':9s} {'metric':14s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won p/c':>9s} {'ratio [q1, q3]':>22s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for m in spec["end_to_end"]:
            name = m["name"]
            p_runs, c_runs = parent[workload].get(name), change[workload].get(name)
            if not p_runs or not c_runs:
                continue
            matched = pairs(p_runs, c_runs)
            if not matched:
                continue
            result, wp, wc, (r1, r, r3) = verdict(
                [v for _, v in p_runs], [v for _, v in c_runs], matched, m["better"], m["bound"])
            cols = []
            for runs in (p_runs, c_runs):
                q1, med, q3 = quartiles([v for _, v in runs])
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {m['unit']}")
            n = len(matched)
            share = f"{wp / n:.0%}/{wc / n:.0%}"
            ratio = f"{r:.3f} [{r1:.3f}, {r3:.3f}]"
            print(f"{workload:9s} {name:14s} {cols[0]:>34s} {cols[1]:>34s} {share:>9s} "
                  f"{ratio:>22s}  {result}")


def seed_list(text: str) -> List[int]:
    """'1-10' or '1,5,9'."""
    if "-" in text:
        first, last = (int(x) for x in text.split("-"))
        return list(range(first, last + 1))
    return [int(x) for x in text.split(",")]


def run_pairs(parent_dir: Path, change_dir: Path, seeds: List[int], workloads: List[str],
              seconds: int, out: Path) -> None:
    """Run both checkouts' benchmarks in ABAB order, appending to out/{parent,change}.jsonl."""
    out.mkdir(parents=True, exist_ok=True)
    sides = [("parent", parent_dir), ("change", change_dir)]
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", "0", "--out", str(out / f"{side}.jsonl")]
                done = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600)
                print(f"seed {seed} {workload} {side}: exit {done.returncode}", flush=True)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="PARENT.jsonl CHANGE.jsonl")
    parser.add_argument("--run", nargs=2, type=Path, metavar=("PARENT_DIR", "CHANGE_DIR"),
                        help="checkouts to run in ABAB order before comparing")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default="refute,decide,families")
    parser.add_argument("--out", type=Path, help="directory for the --run result files")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.run:
        if args.files or args.out is None:
            parser.error("--run takes --out and no result files")
        run_pairs(args.run[0].resolve(), args.run[1].resolve(), args.seeds,
                  args.workloads.split(","), spec["run_seconds"], args.out)
        files = [args.out / "parent.jsonl", args.out / "change.jsonl"]
    elif len(args.files) == 2:
        files = args.files
    else:
        parser.error("give PARENT.jsonl CHANGE.jsonl, or --run PARENT_DIR CHANGE_DIR --out DIR")
    report(files[0], files[1], spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
