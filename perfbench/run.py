#!/usr/bin/env python3
"""End-to-end benchmark entry point (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 2013 --seconds 30 \
        --trace 0

Builds the system from ../src together with the benchmark program into
.bench_build/ (RelWithDebInfo), then runs the program. It prints
one JSON result as the last line of stdout and exits non-zero, without a
result, when any output check fails.
"""
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = ".bench_build"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(state_dir):
    """Configures and builds the benchmark program; returns its path or None."""
    build_dir = os.path.join(state_dir, "cmake")
    binary = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode:
            return None
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        cwd=ROOT, stdout=sys.stderr)
    return binary if result.returncode == 0 and os.path.exists(
        os.path.join(ROOT, binary)) else None


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("the system's sources (src/) are missing; nothing to build")
        return 2
    if shutil.which("cmake") is None:
        log("cmake is not installed")
        return 2
    binary = build(STATE_DIR)
    if binary is None:
        log("build failed")
        return 2
    # Own process group, so a timeout stops the program's children too.
    bench = subprocess.Popen(
        [os.path.join(ROOT, binary), *argv, "--state-dir", STATE_DIR],
        cwd=ROOT, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
