#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim_suite|serve_hot \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the comsim library, the serving
daemons and the measuring binary (perfbench/CMakeLists.txt) in
.bench_build/cmake, runs one measurement, and relays its output; the
last stdout line is the JSON result. Exits non-zero, without a result,
when the build or the measurement fails. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "run")
WORKLOADS = ("sim_suite", "serve_hot")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False
    return proc.returncode == 0


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not run_checked(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return False
    return run_checked(["cmake", "--build", BUILD, "-j", jobs,
                        "--target", "perfbench"], BUILD_TIMEOUT_S)


def measure(args):
    """Run the binary in its own process group; relay its stdout."""
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--routerd", os.path.join(BUILD, "comsim", "comsim_routerd"),
           "--workdir", WORK]
    os.makedirs(WORK, exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("run.py: measurement timed out", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = (proc.returncode == 0 and
              set(result) == {"correct", "attempted", "failed", "metrics"})
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(out)
        print(f"run.py: measurement failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
