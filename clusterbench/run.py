#!/usr/bin/env python3
"""Build the cluster benchmark from source and run it once.

Usage, from the root of a checkout:

    python3 clusterbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

The Go program is a module of its own (clusterbench/go.mod) that builds
against the repository through a replace directive. Build outputs, the Go
build cache and trace spans all stay under .bench_build/ in the checkout.
The last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run ends well within 180 s; this bound only stops a hung one.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        # Go keeps its env file and telemetry under the user config dir.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(BUILD, "clusterbench")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        sys.exit("clusterbench: build failed")
    return binary


def main():
    binary = build()
    try:
        res = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("clusterbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
