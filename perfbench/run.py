#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <tune_mssales|campaign_random|serve_fleet> \
        --seed <n> --seconds <s> --trace <0|1>

The build (release, offline) goes to $CARGO_TARGET_DIR, or `.bench_build`
when unset; its output goes to stderr. The benchmark's own output, whose
last line is the JSON result, goes to stdout. A failed build exits with
code 1 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "tuna-perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
