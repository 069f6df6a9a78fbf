#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload zipf-wide --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script configures and builds the
benchmark package (perfbench/CMakeLists.txt, which builds libbac from the
checkout's sources) into .bench_build/perfbench, generates the workload's
inputs from the seed into a scratch directory under .bench_build, runs
the benchmark binary, removes the inputs and relays the binary's output.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; build logs go to stderr.

Exit status: the binary's (0 when every output check passed), or 1 with
no result line when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("zipf-wide", "blocklocal-miss")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise RuntimeError(f"{' '.join(cmd[:2])} failed ({proc.returncode})")


def build():
    """Configure once, then (re)build; a no-op when nothing changed."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
               "-j", jobs], timeout=840)
    return BINARY


def run_binary(binary, args, extra=()):
    """Run one benchmark process over fresh inputs; returns (code, stdout)."""
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=BUILD_ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", inputs, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return proc.returncode, proc.stdout


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main():
    args = parse_args()
    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    try:
        code, out = run_binary(binary, args)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run failed: {e}")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
