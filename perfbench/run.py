#!/usr/bin/env python3
"""Build and run the perfbench benchmark binary.

Usage (from the repository root):
    python3 perfbench/run.py --workload serve_plan --seed 1 --seconds 25 --trace 0

Configures and builds perfbench/ (which compiles the repository's src/
libraries) into $CARGO_TARGET_DIR/perfbench (default .bench_build/), then
runs the benchmark binary. Its last stdout line is the JSON result; build
output goes to stderr. Exits non-zero when the build or any correctness
check fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no src/ tree next to perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2

    build = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    configure = ["cmake", "-S", str(root / "perfbench"), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (build / "CMakeCache.txt").is_file():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return 2
    if subprocess.run(["cmake", "--build", str(build), "-j", "4"],
                      stdout=sys.stderr).returncode != 0:
        return 2

    out = build / "out"
    out.mkdir(parents=True, exist_ok=True)
    command = [str(build / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--out", str(out)]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
