#!/usr/bin/env python3
"""Builds the tlcbench driver from this checkout (Release) and runs one workload.

    python3 tlcbench/run.py --workload point_uniform --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/tlcbench (default .bench_build/tlcbench),
run outputs and span files to .bench_out/, both under the checkout root.
Build output goes to stderr; the driver's last stdout line is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "beas_service.h")):
        print("tlcbench: the BEAS sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "tlcbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("tlcbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2
    driver = os.path.join(build, "tlcbench_driver")
    out = os.path.join(ROOT, ".bench_out")
    sys.stdout.flush()
    return subprocess.run([driver] + sys.argv[1:] + ["--out", out], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
