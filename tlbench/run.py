#!/usr/bin/env python3
"""Build the tlbench package and run one benchmark workload.

Usage, from the repository root:

    python3 tlbench/run.py --workload batch-report --seed 1 --seconds 25 \
        --trace 0

The build goes to .bench_build/ and the run's scratch files to
.bench_run/, both under the repository root. The last line on stdout
is the run's JSON result; everything else (build output, reference
percentiles, the traced table) comes before it or goes to stderr.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("batch-report", "daemon-explore", "cluster-gather", "fleet-push")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must fit in 32 bits and --seconds be 1..3600")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("tlbench: the tracelens sources (src/) are not next to the "
              "benchmark", file=sys.stderr)
        return 2

    build = os.path.join(root, ".bench_build")
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "tlbench", "tracelens_cli"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("tlbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    work = os.path.join(root, ".bench_run")
    os.makedirs(work, exist_ok=True)
    tlbench = os.path.join(build, "tlbench")
    sys.stdout.flush()
    os.execv(tlbench, [tlbench,
                       "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace),
                       "--cli", os.path.join(build, "tools", "tracelens"),
                       "--work", work])


if __name__ == "__main__":
    sys.exit(main())
