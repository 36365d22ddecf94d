#!/usr/bin/env python3
"""Builds the qrel benchmark from the checkout's sources and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact_small --seed 1 --seconds 55 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the first run configures and compiles (about a minute on four
cores), later runs only re-check it. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. A traced run (--trace 1)
leaves its spans in $CARGO_TARGET_DIR/spans/<workload>-<seed>.jsonl. The
exit code is the benchmark's: 0 only when every answer was checked right
and nothing failed.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("approx_sparse", "exact_small")
RUN_TIMEOUT_S = 170


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                       "qrel_perfbench"], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "qrel_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("run.py: the qrel sources (src/) are not in this checkout",
              file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    binary = build(build_root)
    if binary is None:
        print("run.py: the benchmark failed to build", file=sys.stderr)
        return 3

    workdir = os.path.join(build_root, "work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        code = subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        code = 4
    finally:
        # Keep the traced run's spans; drop the scratch files.
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            kept = os.path.join(build_root, "spans")
            os.makedirs(kept, exist_ok=True)
            shutil.move(spans, os.path.join(
                kept, "%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(workdir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
