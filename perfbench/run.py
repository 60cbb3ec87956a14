#!/usr/bin/env python3
"""Build and run the wall-clock TCP benchmark from the repository root.

    python3 perfbench/run.py --workload fanout_ship --seed 1 --seconds 20 --trace 0

Builds perfbench/tcpbench.exe with dune (the repository's own build),
then runs it with the same arguments, which it checks.  Its standard
output passes through unchanged; the last line is the JSON result.
Exits non-zero, without a result, when the build fails.  See
perfbench/NOTES.md.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "tcpbench.exe")


def main() -> int:
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./" + EXE],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=880,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return 2

    # One CPU for the benchmark process: with its threads spread over two
    # CPUs, runs of the same code flip between about 9 and 21 ms of CPU
    # per query on fanout_ship, while pinned runs stay at 9-11 ms
    # (perfbench/NOTES.md, "Pinned to one CPU").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([EXE] + sys.argv[1:], timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
