#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/tests/test_determinism.py <perfbench binary> <repo root>

Runs `perfbench --selftest` twice in separate processes. Within a process the
self-test already requires sim.events, bbp.polls, ring.packets,
mpi.packets_handled and net.frames_delivered to repeat exactly across two
untraced iterations, a traced one and (paper_suite) one sweep worker instead
of min(4, nproc). Here the two processes must also print identical counts.
`python3 perfbench/run.py --selftest` runs one such process.
"""
import os
import subprocess
import sys


def counts(binary, root, seed):
    res = subprocess.run(
        [binary, "--selftest", "--seed", str(seed),
         "--golden-dir", os.path.join(root, "bench", "golden")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=900)
    sys.stdout.write(res.stdout)
    if res.returncode != 0:
        sys.exit("selftest process failed with code %d" % res.returncode)
    return [line for line in res.stdout.splitlines() if line.startswith("count ")]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, root = sys.argv[1], sys.argv[2]
    first = counts(binary, root, 7)
    second = counts(binary, root, 7)
    if not first or first != second:
        sys.exit("counts differ between two processes:\n%s\n---\n%s"
                 % ("\n".join(first), "\n".join(second)))
    print("determinism ok: %d counts repeat across processes" % len(first))


if __name__ == "__main__":
    main()
