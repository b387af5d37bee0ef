"""End-to-end and per-layer benchmark of the newtonbench CLI.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 30 --trace 0

Runs one workload (`refute`, `decide`, `families`, or `all`, which starts
each workload in a fresh process of its own, one after another). One
client runs whole rounds of jobs in a closed loop until the jobs have
taken --seconds of wall time: each job calls `newtonbench.cli.main(argv)`
in this process, single-threaded, with stdout captured, and its report is
checked, off the clock, against the independent oracle in `oracle.py`.
Times are CPU seconds of the process (see CLOCK). The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines above
it print every metric by name with its unit, the tail percentile used and
each failure with its exception type.

The library is imported from `src/` next to this directory and nowhere
else; without it the run exits with status 1 before printing a result.
The metric names and units come from BENCHMARK.json. See
`perfbench/README.md` for the metrics and `compare.py` to compare two sets
of results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import workloads
from oracle import CheckFailed
from tracing import Tracer
from workloads import Job, Round

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench")

# Set-ups before the loop; one more runs after each round, off the clock, so
# the reported median samples the whole run rather than its first seconds.
SETUP_FIRST = 3
TAIL_BEYOND = 10

# Jobs and set-up are timed in CPU seconds of this single-threaded process
# (time.process_time): the library does no I/O or waiting in a job, so that
# is its wall time on an idle machine, without the time a shared host
# leaves the process descheduled.
CLOCK = time.process_time

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.process_time(); import newtonbench.cli; "
                 "print(time.process_time() - t)")


def metric_units(kind: str) -> Dict[str, str]:
    """name -> unit of the `end_to_end` or `per_layer` metrics in BENCHMARK.json, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class SetupError(RuntimeError):
    pass


@dataclass
class Outcome:
    seconds: float  # CPU seconds
    code: Optional[int] = None
    stdout: str = ""
    exc: Optional[BaseException] = None
    traced_stdout: Optional[str] = None  # the traced run's report, in traced runs


@dataclass
class Record:
    job: Job
    seconds: float
    ok: bool
    failure: Optional[str] = None  # exception type or check message
    expected: bool = True  # False: an unexpected failure makes the run incorrect


# -- library and set-up -----------------------------------------------------------

def import_cli():
    """Import newtonbench.cli from this checkout's src/ only."""
    if not (SRC / "newtonbench" / "cli.py").is_file():
        raise SetupError(f"library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import newtonbench.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "newtonbench":
        raise SetupError(f"imported newtonbench from {cli.__file__}, not {SRC}")
    return cli


def time_import() -> float:
    """Import time of newtonbench.cli in a fresh interpreter, as a CLI user pays it."""
    done = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SetupError(f"import probe failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout)


def set_up(workload: str, seed: int, tiny: bool) -> tuple:
    """One set-up: (import time + input generation time, the generated rounds)."""
    imported = time_import()
    start = CLOCK()
    rounds = workloads.prepare(workload, seed, WORK / f"work-{workload}", tiny)
    return imported + CLOCK() - start, rounds


# -- running jobs -----------------------------------------------------------------

def run_job(main: Callable, argv: Sequence[str]) -> Outcome:
    out = io.StringIO()
    start = CLOCK()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        return Outcome(CLOCK() - start, exc.code if isinstance(exc.code, int) else 2,
                       out.getvalue())
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        return Outcome(CLOCK() - start, exc=exc)
    return Outcome(CLOCK() - start, code, out.getvalue())


def evaluate(job: Job, outcome: Outcome) -> Record:
    if outcome.exc is not None:
        label, known = workloads.describe_failure(outcome.exc, job)
        return Record(job, outcome.seconds, False, label, known)
    try:
        job.check(json.loads(outcome.stdout), outcome.code)
    except (CheckFailed, LookupError, TypeError, ValueError,
            AttributeError) as exc:
        return Record(job, outcome.seconds, False, f"check: {exc}"[:200], False)
    return Record(job, outcome.seconds, True)


def measure(rounds: List[Round], seconds: float, run: Callable[[Job], Outcome],
            check: Callable[[Job, Outcome], Record],
            between: Optional[Callable[[], None]] = None) -> tuple:
    """Run whole rounds until `run` has taken `seconds` of wall time (at least one round).

    Only `run` is on the clock: writing a round's input files, checking
    each report and `between`, which runs after each round, are not.
    """
    records: List[Record] = []
    busy = 0.0
    r = 0
    while True:
        rnd = rounds[r % len(rounds)]
        rnd.write_inputs()
        for job in rnd.jobs:
            start = time.perf_counter()
            outcome = run(job)
            busy += time.perf_counter() - start
            records.append(check(job, outcome))
        r += 1
        if busy >= seconds:
            break
        if between is not None:
            between()
    return records, busy, r


def end_to_end(records: List[Record], setup_s: float) -> tuple:
    times = sorted(rec.seconds for rec in records if rec.ok)
    n = len(times)
    if n > TAIL_BEYOND:
        k = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples beyond it
        tail, tail_info = times[k - 1], (100.0 * k / n, TAIL_BEYOND, n)
    else:
        tail, tail_info = (times[-1] if times else 0.0), (100.0, 0, n)
    values = {
        "setup_s": setup_s,
        "job_p50_s": statistics.median(times) if times else 0.0,
        "job_tail_s": tail,
        "jobs_per_s": n / sum(rec.seconds for rec in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": n / len(records),
    }
    return values, tail_info


def traced_run(cli, tracer: Tracer) -> Callable[[Job], Outcome]:
    """Untraced run, traced run and enumerator phase probes for one job."""
    from newtonbench import enumeration, polynomials

    traced_main = tracer.wrap("cli.main", cli.main)

    def run(job: Job) -> Outcome:
        plain = run_job(cli.main, job.argv)
        tracer.job += 1
        with tracer.installed():
            traced = run_job(traced_main, job.argv)
            tracer.count("cli.report_bytes", len(traced.stdout))
            probe = job.probe
            if probe is not None:
                target = polynomials.DensePoly(probe.target)
                args = dict(ops=probe.ops, constants=probe.constants)
                enumeration.find_decider(target, probe.depth, **args)
                enumeration.generic_path_classes(probe.depth, **args)
                if plain.exc is None and plain.code == 0:  # refuted: the CLI ran the count phase
                    enumeration.count_canonical_trees(probe.depth, **args)
        tracer.count("trace.overhead_s", traced.seconds - plain.seconds)
        plain.traced_stdout = traced.stdout
        return plain

    return run


def check_traced(job: Job, outcome: Outcome) -> Record:
    record = evaluate(job, outcome)
    if record.ok and outcome.traced_stdout != outcome.stdout:
        return Record(job, outcome.seconds, False, "traced report differs", False)
    return record


def per_layer(tracer: Tracer, jobs: int, names) -> Dict[str, float]:
    """Every per-layer metric as a mean per job."""
    totals = tracer.layer_totals()
    totals.update(tracer.counts)
    return {name: totals.get(name, 0.0) / jobs for name in names}


# -- reporting ----------------------------------------------------------------------

def summary(records: List[Record]) -> List[str]:
    lines = []
    failures: Dict[tuple, int] = {}
    kinds: Dict[str, List[float]] = {}
    for rec in records:
        if rec.ok:
            kinds.setdefault(rec.job.kind, []).append(rec.seconds)
        else:
            key = (rec.job.kind, rec.failure, rec.expected)
            failures[key] = failures.get(key, 0) + 1
    for kind, times in kinds.items():
        lines.append(f"  job {kind}: median {statistics.median(times):.4f} s of {len(times)}")
    failed = sum(failures.values())
    lines.append(f"  failed_ratio {failed / len(records):.6f} ({failed} of {len(records)} jobs)")
    for (kind, label, expected), n in sorted(failures.items()):
        note = "known crash" if expected else "UNEXPECTED"
        lines.append(f"  failure: {kind}: {label} x{n} ({note})")
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple:
    """Returns (result object, human-readable lines)."""
    cli = import_cli()
    setups = []
    for _ in range(SETUP_FIRST):
        took, rounds = set_up(workload, seed, tiny)
        setups.append(took)

    def another_setup() -> None:
        setups.append(set_up(workload, seed, tiny)[0])
    lines = [f"workload {workload} seed {seed} trace {int(trace)}: python "
             f"{platform.python_version()}, {os.cpu_count()} cpus, {platform.platform()}"]
    if trace:
        units = metric_units("per_layer")
        tracer = Tracer()
        records, busy, nrounds = measure(rounds, seconds, traced_run(cli, tracer), check_traced)
        metrics = per_layer(tracer, len(records), units)
        tracer.write(WORK / f"spans-{workload}.tsv")
        phases = sum(metrics[f"enumeration.{p}.s"] for p in ("witness", "sweep", "count"))
        lines.append(f"  witness.s + sweep.s + count.s = {phases:.6f} s per job against "
                     f"refute.s = {metrics['enumeration.refute.s']:.6f} s")
    else:
        units = metric_units("end_to_end")
        records, busy, nrounds = measure(rounds, seconds, lambda job: run_job(cli.main, job.argv),
                                         evaluate, another_setup)
        metrics, (pct, beyond, n) = end_to_end(records, statistics.median(setups))
        lines.append(f"  job_tail_s is p{pct:.2f} of {n} completed jobs, {beyond} beyond it")
    table = {name: (metrics[name], unit) for name, unit in units.items()}
    lines.insert(1, f"  {len(records)} jobs in {nrounds} rounds, {busy:.3f} s wall in jobs; "
                    f"set-up {statistics.median(setups):.4f} s (median of {len(setups)})")
    for name, (value, unit) in table.items():
        lines.append(f"  {name:40s} {value:.6g} {unit}")
    lines.extend(summary(records))
    result = {
        "correct": all(rec.ok or rec.expected for rec in records),
        "attempted": len(records),
        "failed": sum(1 for rec in records if not rec.ok),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()},
    }
    return result, lines


def spawn_all(args) -> int:
    """Each workload in a fresh interpreter, one after another."""
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        if args.tiny:
            cmd.append("--tiny")
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result with its settings to this JSONL file")
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: depth <= 3 and small families")
    args = parser.parse_args(argv)
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(ROOT)
    if args.workload == "all":
        return spawn_all(args)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds,
                                     bool(args.trace), args.tiny)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / f"work-{args.workload}", ignore_errors=True)
    print("\n".join(lines))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "tiny": args.tiny, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
