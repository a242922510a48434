#!/usr/bin/env python3
"""Builds the ledger benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 ledger/run.py --workload handset --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --test        # the benchmark's own tests

The first call configures and builds the pmrl sources together with the
benchmark into .bench_build/ledger (or $CARGO_TARGET_DIR/ledger when that is
set); later calls only rebuild what changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.hpp")):
        fail("no pmrl sources next to the benchmark (src/ is missing)")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "ledger")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target", target,
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    if argv == ["--test"]:
        tests = build("ledger_tests")
        return subprocess.run([tests], stdout=sys.stderr).returncode
    binary = build("ledger_bench")
    sys.stdout.flush()
    os.chdir(ROOT)
    # Replace this process: the benchmark's exit code and output are ours,
    # and no child outlives the run.
    os.execv(binary, [binary, *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
