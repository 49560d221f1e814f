#!/usr/bin/env python3
"""Build and run the C3 benchmark from the root of a source tree.

    python3 c3perf/run.py --workload commit-rs --seed 1 --seconds 20 --trace 0

Builds the Go program in c3perf/ (its own module, which takes the c3
module from the enclosing tree) into .bench_build/, then runs it once and
passes its output and exit code through. Every file the build and the run
write stays under .bench_build/. The commit of the tree, when it is a git
checkout, is recorded with the result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                      ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config")):
        env[name] = os.path.join(BUILD, sub)
        os.makedirs(env[name], exist_ok=True)
    env.update(GOFLAGS="-buildvcs=false", GOTOOLCHAIN="local",
               GOPROXY="off", GOWORK="off", CGO_ENABLED="0")
    return env


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    binary = os.path.join(BUILD, "c3perf")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=go_env(), stdout=sys.stderr)
    if built.returncode != 0:
        print("c3perf: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--commit", commit(),
                           "--span-dir", os.path.join(BUILD, "spans")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
