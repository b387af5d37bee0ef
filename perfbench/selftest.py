"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload for one round at depth <= 3 with small families, once
untraced and once traced, each in a fresh process, and checks that every
metric BENCHMARK.json names is printed with its unit, both in the readable
lines and in the final JSON line. Then passes corrupted reports of each
workload through the harness's checker and requires each to count as a
failed job that makes the run incorrect, and checks that a certificate
whose gap list exceeds the subset-sum budget passes only with null counts.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

SEED = 3


def run_tiny(workload: str, trace: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace} exited {done.returncode}: "
                             f"{done.stderr[-400:]}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = run_tiny(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            _require(got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                _require(any(line.split()[:1] == [name] and line.split()[-1] == unit
                             for line in lines),
                         f"{workload} trace {trace}: {name} not printed with its unit")
            _require(result["correct"] is True and result["attempted"] >= 1,
                     f"{workload} trace {trace}: run not correct")
            known = 2 if workload == "families" else 0  # the two int/str-limit crashes
            _require(result["failed"] == known, f"{workload}: {result['failed']} failed jobs")
            print(f"ok  {workload} trace {trace}: {len(want)} metrics with units")


# (workload, job index in the first round, text to find, replacement)
CORRUPTIONS = (
    ("refute", 0, '"canonical_trees":"70544"', '"canonical_trees":"70545"'),
    ("refute", 3, '"refuted":true', '"refuted":false'),
    ("decide", 1, "accept", "reject"),
    ("families", 0, '"zero_roots":0', '"zero_roots":1'),
    ("families", 7, '"subset_sum_count":2048', '"subset_sum_count":2047'),
)


def check_corruption(cli) -> None:
    workdir = run.WORK / "work-selftest"
    try:
        for workload, index, old, new in CORRUPTIONS:
            first = workloads.prepare(workload, SEED, workdir, tiny=True, rounds=1)[0]
            first.write_inputs()
            job = first.jobs[index]
            outcome = run.run_job(cli.main, job.argv)
            _require(run.evaluate(job, outcome).ok, f"{job.kind}: clean report rejected")
            _require(old in outcome.stdout, f"{job.kind}: {old!r} not in the report")
            outcome.stdout = outcome.stdout.replace(old, new, 1)
            records, _, _ = run.measure([workloads.Round([job], {})], 0,
                                        lambda j: outcome, run.evaluate)
            rec = records[0]
            _require(not rec.ok and not rec.expected,
                     f"{job.kind}: corrupted report was not counted as failed")
            print(f"ok  {job.kind}: corrupted report failed ({rec.failure})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_over_budget(cli) -> None:
    """A gap list longer than the subset-sum budget: counts are null, not 2^n."""
    job = workloads._certify_job("certify p:24", "p", 24, 3, 28)
    outcome = run.run_job(cli.main, job.argv)
    _require(run.evaluate(job, outcome).ok, "certify p:24: clean report rejected")
    _require('"subset_sum_count":null' in outcome.stdout, "certify p:24: subset sums counted")
    outcome.stdout = outcome.stdout.replace('"subset_sum_count":null',
                                            f'"subset_sum_count":{1 << 25}', 1)
    _require(not run.evaluate(job, outcome).ok, "certify p:24: a count over the budget passed")
    print("ok  certify p:24: 25 gap values, subset sums left uncounted")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        check_metrics(spec)
        cli = run.import_cli()
        check_corruption(cli)
        check_over_budget(cli)
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
