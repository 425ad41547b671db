#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

Run from the root of a checkout:

    python3 simbench/run.py --workload mix_grid --seed 1 --trace 0
    python3 simbench/run.py --check       # every check, reduced size, seconds

--seconds defaults to BENCHMARK.json's run_seconds.

The first run configures and builds simbench/ (the repository's library
at its default RelWithDebInfo build, plus the benchmark executable) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr. The benchmark's own
last line of standard output is the result: one JSON object with
"correct", "attempted", "failed" and "metrics". A failed correctness
check is named on stderr and the exit code is non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix_grid", "trace_replay", "fuzz_campaign")
RUN_TIMEOUT_S = 175


def run_seconds():
    """BENCHMARK.json's run_seconds, the length of one measured run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def build(build_root, cmake_args):
    """Configures (once) and builds the simbench target; returns its path."""
    bin_dir = os.path.join(build_root, "simbench")
    if not os.path.exists(os.path.join(bin_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", bin_dir] + cmake_args,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bin_dir, "--target", "simbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bin_dir, "simbench")


def run(exe, args, work_dir):
    """Runs the benchmark executable; its output passes straight through."""
    cmd = [exe] + args + ["--work-dir", work_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("simbench: %s timed out after %d s" % (" ".join(args),
                                                    RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=run_seconds(),
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="the checks' self-test, then every workload "
                         "reduced-size, untraced and traced")
    ap.add_argument("--build-dir", default=None,
                    help="build root (default $CARGO_TARGET_DIR or "
                         ".bench_build)")
    ap.add_argument("--cmake-arg", action="append", default=[],
                    help="extra configure argument, e.g. "
                         "-DCMAKE_CXX_FLAGS=-DNDEBUG (a fresh --build-dir)")
    opt = ap.parse_args()
    if not opt.check and opt.workload is None:
        ap.error("--workload or --check is required")
    if opt.seed < 0:
        ap.error("--seed must be >= 0")

    build_root = os.path.abspath(
        opt.build_dir or os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_root, opt.cmake_arg)
    except (OSError, subprocess.CalledProcessError) as e:
        print("simbench: build failed: %s" % e, file=sys.stderr)
        return 1
    work_dir = os.path.join(build_root, "simbench-work")

    if not opt.check:
        args = ["--workload", opt.workload, "--seed", str(opt.seed),
                "--seconds", str(opt.seconds), "--trace", str(opt.trace)]
        return run(exe, args, work_dir)

    status = run(exe, ["--selftest"], work_dir)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", str(opt.seed),
                    "--seconds", "1", "--trace", trace, "--small"]
            print("simbench --check: %s --trace %s" % (workload, trace),
                  file=sys.stderr)
            status = run(exe, args, work_dir) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
