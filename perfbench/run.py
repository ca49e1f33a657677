#!/usr/bin/env python3
"""Builds the NetMax benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper8 --seed 1 --seconds 20 --trace 0

The first call configures perfbench/ (the NetMax libraries plus the
benchmark program, Release build) into .bench_build/ at the checkout root;
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the program's JSON result. With --trace 1 the traced
pass's spans are written to .bench_build/trace-<workload>.json, Chrome
trace-event JSON that https://ui.perfetto.dev opens.

Exits with the program's code: 0 when every output check passed, 1 when one
failed or the build failed, 2 on bad flags.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper8", "netmax32", "scale32", "churn8")


def build():
    """Configures on first use and builds the program; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "netmax_perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "netmax_perfbench")


def git_commit():
    """The checkout's commit, "-dirty" when it has changes; "unknown" outside
    a git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty", "--abbrev=40"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-commit", git_commit()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
