#!/usr/bin/env python3
"""Build and run the campaign benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload native --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
driver under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later runs rebuild incrementally. Build output goes to standard error; the
driver's report goes to standard output, ending with one JSON line.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "campaign_bench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = os.path.join(build_dir, "campaign_bench")
    proc = subprocess.run([driver, *sys.argv[1:], "--out-dir", build_dir],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        print("perfbench: the driver printed no result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
