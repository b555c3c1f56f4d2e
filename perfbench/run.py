#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest --seed 1

Run from the repository root. The first call configures and builds the
simulator libraries plus the perfbench binary (Release) under
.bench_build/perfbench; later calls only re-check the build. The binary's
output is passed through: its last stdout line is the JSON result. A traced
run (--trace 1) also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.json (Chrome trace format).
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(ROOT, "bench", "golden")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step; its output goes to stderr only if it fails."""
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isdir(GOLDEN):
        fail("golden tables (bench/golden/) not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    cmd = [binary, "--seed", args.seed, "--golden-dir", GOLDEN]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", args.seconds, "--trace", args.trace]
        if args.trace == "1":
            cmd += ["--trace-out",
                    os.path.join(BUILD, "trace-%s-%s.json" % (args.workload, args.seed))]
    # The binary pins its own environment (SCRNET_* knobs, malloc tunables).
    proc = subprocess.Popen(cmd, cwd=ROOT)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    sys.exit(proc.wait())


if __name__ == "__main__":
    main()
