#!/usr/bin/env python3
"""Builds the benchmark executable from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes through dune
(two jobs); its output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero without
a result when the build or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "--display", "quiet",
         "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
