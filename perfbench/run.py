#!/usr/bin/env python3
"""The pilot benchmark: one command per (workload, seed).

    python3 perfbench/run.py --workload deep-prop --seed 1 --seconds 30 \
        --trace 0

Builds the `perfbench` driver and pilot_core from source, draws the
workload's cases from --seed and writes them as AIGER files, then runs
every case x engine check closed-loop, one at a time, in a single process,
for --seconds.  Every definitive verdict is compared with the family's
known status and its certificate re-checked with cert::check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 the
per-layer ones, from passes that alternate untraced and traced.  Report
rows go to stdout and to report.json in the run's work directory; the last
stdout line is the result object.  The exit code is non-zero on a wrong
verdict, a failed certificate, or a work count that does not repeat.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import draws  # noqa: E402
import metrics  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
# Checks of one run must end within this many seconds after the build.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return BUILD_DIR / "perfbench"


def fixed_layout_prefix():
    """A command prefix that runs a program with address-space layout
    randomization off, or [] where setarch cannot.  On a 4-core x86-64 VM
    the same checks ranged over 20% from one process to the next with
    randomization on, and over about 5% with it off."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], capture_output=True)
    return prefix if probe.returncode == 0 else []


def generate(binary, workload, seed, work):
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    specs = draws.draw(workload, seed)
    (work / "specs.txt").write_text("\n".join(specs) + "\n")
    subprocess.run([str(binary), "gen", str(work)], input="\n".join(specs),
                   text=True, check=True, timeout=60)
    return specs


def run_checks(binary, workload, work, seconds, trace, deadline):
    engines, budget_ms, _ = draws.WORKLOADS[workload]
    out = work / "records.jsonl"
    cmd = fixed_layout_prefix() + [
        str(binary), "run", "--dir", str(work), "--engines", ",".join(engines),
        "--seconds", str(seconds), "--trace", str(trace), "--budget-ms",
        str(budget_ms), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(work / "spans.json")]
    subprocess.run(cmd, check=True, timeout=max(1.0, deadline - time.time()))
    return [json.loads(line) for line in out.read_text().splitlines()]


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def print_rows(workload, rows):
    cols = ["engine", "checks", "unsolved", "wrong_verdicts", "cert_failures",
            "check_s", "verdict_s_p50", "verdict_s_p90", "sat_solves",
            "propagate_share", "generalize_share"]
    print("# report rows (%s): one per engine" % workload)
    print("\t".join(["workload"] + cols))
    for r in rows:
        print("\t".join([workload] + [fmt(r[c]) for c in cols]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(draws.WORKLOADS))
    ap.add_argument("--seed", type=int, default=draws.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    deadline = time.time() + RUN_TIMEOUT_S
    work = WORK_DIR / ("%s-seed%d-trace%d" % (args.workload, args.seed,
                                              args.trace))
    specs = generate(binary, args.workload, args.seed, work)
    records = run_checks(binary, args.workload, work, args.seconds,
                         args.trace, deadline)

    checks = metrics.by_type(records, "check")
    unsolved, wrong, cert_failures = metrics.correctness(checks)
    mismatches = metrics.determinism_mismatches(records)
    e2e, sizes = metrics.end_to_end(records)
    rows = metrics.engine_rows(records)
    engines = draws.WORKLOADS[args.workload][0]
    computed = dict(e2e)
    if args.trace:
        computed.update(metrics.per_layer(records))

    print("# %s seed=%d trace=%d: %d cases, %d checks per pass, %d passes"
          % (args.workload, args.seed, args.trace, len(specs),
             sizes["checks"], len(metrics.by_type(records, "pass"))))
    print_rows(args.workload, rows)
    print("# end to end (untraced passes; verdict_s over %d checks, setup_s "
          "over %d set-ups)" % (sizes["checks"], sizes["setup_samples"]))
    for name in ["setup_s", "wall_s", "verdict_s_p50", "verdict_s_p90",
                 "peak_rss_mb"]:
        print("%s\t%s" % (name, fmt(e2e[name])))
    print("unsolved_frac\t%s\t(%d of %d checks)"
          % (fmt(metrics.ratio(unsolved, len(checks))), unsolved, len(checks)))
    print("wrong_verdicts\t%d" % wrong)
    print("cert_failures\t%d" % cert_failures)
    print("work_count_mismatches\t%d" % len(mismatches))
    for name, engine, count, values in mismatches[:10]:
        print("# MISMATCH %s %s %s: %s" % (name, engine, count, values))
    if args.trace:
        print("# per layer (median over traced passes; phase seconds are "
              "inclusive and overlap: block > generalize > predict, all > "
              "sat_solve)")
        for m in wanted:
            print("%s\t%s\t%s" % (m["name"], fmt(computed[m["name"]]),
                                  m["unit"]))

    correct = wrong == 0 and cert_failures == 0 and not mismatches
    result = {
        "correct": correct,
        "attempted": len(checks),
        "failed": unsolved,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (work / "report.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "engines": engines, "rows": rows, "computed": computed,
        "sizes": sizes, "unsolved": unsolved, "wrong_verdicts": wrong,
        "cert_failures": cert_failures,
        "work_count_mismatches": len(mismatches), "result": result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
