#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One workload prints a provenance line and, as its last line, the result
object; the exit code is the benchmark's (1 when an output check fails).
`--workload all` runs every workload in BENCHMARK.json untraced and then
traced, prints each run's lines, and exits 1 if any run failed.
"""

import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree of its own."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    for need in ("dune-project", "lib", "BENCHMARK.json", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(need + " not found: run from the root of a full checkout")
    # the shared dune cache lives outside the checkout
    build = subprocess.run(dune() + ["build", "--root", ".", "--cache=disabled",
                                     "./perfbench/perfbench.exe"],
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode:
        fail("the build failed")
    args = sys.argv[1:]
    rev = ["--rev", git_rev()]
    if "--workload" in args and args[args.index("--workload") + 1:][:1] == ["all"]:
        i = args.index("--workload")
        rest = args[:i] + args[i + 2:]
        if "--trace" in rest:
            fail("--workload all runs both trace modes; drop --trace")
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        worst = 0
        for trace in ("0", "1"):
            for name in names:
                run = subprocess.run([EXE, "--workload", name, "--trace", trace] + rest + rev)
                worst = max(worst, run.returncode)
        sys.exit(1 if worst else 0)
    sys.exit(subprocess.run([EXE] + args + rev).returncode)


if __name__ == "__main__":
    main()
