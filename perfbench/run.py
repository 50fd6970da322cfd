#!/usr/bin/env python3
"""Builds (on first use) and runs one perfbench workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is compiled from the sources in
this checkout as a Release CMake project (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the WAL,
snapshots and span dumps go to $CARGO_TARGET_DIR/work. The last line of
standard output is the run's JSON result. The exit code is the benchmark's:
0 when every operation checked out, 1 when any failed, 2 on bad usage or a
missing source tree.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dashboard_dram", "adhoc_l2", "ingest_live")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures once, then lets CMake bring the binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", str(build_dir), "-j", jobs,
            "--target", "perfbench"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small world for smoke tests (not for numbers)")
    parser.add_argument("--perturb", action="store_true",
                        help="test hook: corrupt one expected answer")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT}/src")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(target / "work")]
    if args.tiny:
        command.append("--tiny")
    if args.perturb:
        command.append("--perturb")
    try:
        completed = subprocess.run(command, timeout=170)
    except subprocess.TimeoutExpired:
        fail("workload exceeded 170 s", code=1)
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
