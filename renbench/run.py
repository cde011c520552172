#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 renbench/run.py --workload NAME --seed N --seconds N --trace 0|1
    python3 renbench/run.py --selftest

Run from the repository root. Builds the library and the benchmark with
CMake into $CARGO_TARGET_DIR/renbench (default .bench_build/renbench), then
runs renbench (--trace 0) or renbench_traced (--trace 1, the executable
with the allocation hook). The last line of standard output is the JSON
result; build output and per-trial detail go to standard error. A traced
run also writes its spans to
<build dir>/traces/<workload>.csv. --selftest runs the tests of the
benchmark's own arithmetic.
"""
import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "renbench")


def build(bdir):
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(bdir, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], stdout=sys.stderr,
                   check=True)


def parse(argv):
    p = argparse.ArgumentParser(prog="renbench/run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", required=True)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    return p.parse_args(argv)


def main(argv):
    selftest = argv == ["--selftest"]
    args = None if selftest else parse(argv)
    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"renbench: build failed: {e}", file=sys.stderr)
        return 1
    if selftest:
        return subprocess.run([os.path.join(bdir, "renbench_tests")]).returncode
    # The seed and seconds are validated by the executable, which parses
    # integers over the whole string.
    cmd = ["--workload", args.workload, "--seed", args.seed, "--seconds", args.seconds]
    if args.trace == "0":
        return subprocess.run([os.path.join(bdir, "renbench")] + cmd).returncode
    if re.fullmatch(r"[A-Za-z0-9_]+", args.workload):
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(bdir, "traces", args.workload + ".csv")]
    return subprocess.run([os.path.join(bdir, "renbench_traced")] + cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
