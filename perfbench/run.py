#!/usr/bin/env python3
"""Build and run the closed-loop HyperProtoBench serving benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload dense-sw --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench, then runs serve_bench with the same arguments.
Build output goes to stderr; the benchmark's last stdout line is its
JSON result. With --trace 1 the Chrome trace lands in
.bench_build/traces/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "serve_bench")
# A run must end within 180 s; the binary stops its own phases sooner.
RUN_TIMEOUT_S = 175


def build():
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--trace-dir", TRACE_DIR]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
