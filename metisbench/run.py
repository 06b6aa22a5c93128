#!/usr/bin/env python3
"""Builds the Metis benchmark binary from this checkout and runs one workload.

    python3 metisbench/run.py --workload decide --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The binary is built (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build) and re-built incrementally on every
call. Everything the binary prints is passed through; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. Extra flags
after the four required ones (e.g. --tiny) go to the binary unchanged.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "metisbench",
                    "-j", jobs], check=True, **quiet)
    return os.path.join(build_dir, "metisbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "metis")):
        print("run.py: no Metis sources next to metisbench/ "
              "(expected src/metis in the checkout)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.join(build_root, "metisbench"))
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_root, "run")] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print(f"run.py: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
