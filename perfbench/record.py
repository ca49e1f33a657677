#!/usr/bin/env python3
"""Records the benchmark's numbers into perfbench/results.json.

    python3 perfbench/record.py

For every workload in BENCHMARK.json, at its run_seconds:

- two sets of REPEATS untraced invocations at the workload's pinned default
  seed, alternating A, B, A, B, ... so that machine drift falls on both
  sets alike. For each end-to-end metric the result records both sets'
  medians and their difference as a share of set A's median: what two runs
  of the same code disagree by, the figure the bounds are set from;
- one untraced invocation per SWEEP_SEEDS seed, and the spread
  (Q3 - Q1) / median of each metric over them: a regression check runs the
  benchmark at varying seeds, so this spread must stay within the bound too;
- one traced invocation at the pinned seed (per-layer metrics);
- one invocation at HELD_OUT_SEED, which no recorded number comes from, to
  show the output checks pass on inputs the numbers were not taken on.

Every invocation must pass its output checks and run inside a git checkout
(the commit is recorded); the first failure stops the recording. Exits 1
after writing results.json when a set difference or a sweep spread (other
than setup_s's) exceeds the metric's bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results.json")
REPEATS = 5
SWEEP_SEEDS = list(range(1, 11))
HELD_OUT_SEED = 7777


def run(workload, seconds, trace, seed=None):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--trace", str(trace)]
    if seed is not None:
        command += ["--seed", str(seed)]
    out = subprocess.run(command, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed (exit %d):\n%s%s" %
                 (" ".join(command[1:]), out.returncode, out.stdout,
                  out.stderr[-2000:]))
    result = json.loads(lines[-1])
    context = dict(item.split("=", 1) for item in lines[0].split()[2:])
    if context["git_commit"] == "unknown":
        sys.exit("perfbench: no git commit for the run context; record from "
                 "a git checkout")
    print(workload, "seed=%s" % context["seed"], "trace=%d" % trace,
          json.dumps({name: metric["value"] for name, metric in
                      result["metrics"].items()}), flush=True)
    return result, context


def values(results):
    out = {}
    for result in results:
        for name, metric in result["metrics"].items():
            out.setdefault(name, []).append(metric["value"])
    return out


def spread(series):
    median = statistics.median(series)
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    recorded = {"seconds": seconds, "repeats": REPEATS,
                "sweep_seeds": SWEEP_SEEDS, "held_out_seed": HELD_OUT_SEED,
                "workloads": {}}
    violations = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        sets = {"A": [], "B": []}
        for _ in range(REPEATS):
            for name in sets:
                sets[name].append(run(workload, seconds, 0)[0])
        sweep = [run(workload, seconds, 0, seed)[0] for seed in SWEEP_SEEDS]
        traced, context = run(workload, seconds, 1)
        held_out, _ = run(workload, seconds, 0, HELD_OUT_SEED)
        a, b, s = values(sets["A"]), values(sets["B"]), values(sweep)
        end_to_end = {}
        for name in a:
            median_a = statistics.median(a[name])
            median_b = statistics.median(b[name])
            entry = {
                "unit": units[name], "bound": bounds[name],
                "set_a_median": median_a, "set_b_median": median_b,
                "set_difference": abs(median_b - median_a) / median_a,
                "set_a_spread": spread(a[name]),
                "set_b_spread": spread(b[name]),
                "sweep_median": statistics.median(s[name]),
                "sweep_spread": spread(s[name]),
                "set_a": a[name], "set_b": b[name], "sweep": s[name],
            }
            end_to_end[name] = entry
            if entry["set_difference"] > bounds[name]:
                violations.append("%s %s: set difference %.4f > bound %g" %
                                  (workload, name, entry["set_difference"],
                                   bounds[name]))
            if name != "setup_s" and entry["sweep_spread"] > bounds[name]:
                violations.append("%s %s: sweep spread %.4f > bound %g" %
                                  (workload, name, entry["sweep_spread"],
                                   bounds[name]))
        recorded["context"] = {key: context[key] for key in
                               ("nproc", "compiler", "build_type",
                                "git_commit")}
        recorded["workloads"][workload] = {
            "context": {key: context[key] for key in
                        ("seed", "threads", "backend", "event_queue")},
            "end_to_end": end_to_end,
            "per_layer": {name: metric["value"] for name, metric in
                          traced["metrics"].items()},
            "held_out_correct": held_out["correct"],
        }
    with open(OUT, "w") as f:
        json.dump(recorded, f, indent=1)
        f.write("\n")
    print("%-9s %-17s %10s %10s %8s %8s %8s" %
          ("workload", "metric", "set A", "set B", "diff", "sweep", "bound"))
    for workload, entry in recorded["workloads"].items():
        for name, e in entry["end_to_end"].items():
            print("%-9s %-17s %10.4g %10.4g %8.4f %8.4f %8g" %
                  (workload, name, e["set_a_median"], e["set_b_median"],
                   e["set_difference"], e["sweep_spread"], e["bound"]))
    for violation in violations:
        print("OUT OF BOUND", violation)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
