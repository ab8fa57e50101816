#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes through dune with its shared cache disabled, so nothing is
written outside the checkout; its output goes to standard error, so the
last line of standard output stays the harness's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.exit("perfbench: no dune-project at %s; run from a full checkout" % ROOT)
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        sys.exit("perfbench: build failed (dune exit code %d)" % build.returncode)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
