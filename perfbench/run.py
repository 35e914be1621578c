#!/usr/bin/env python3
"""Builds the benchmark and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <n> --trace <0|1>

`--trace 0` runs the end-to-end binary, `--trace 1` the traced layer
ladder. `--workload all` makes the binary run every workload, each in
its own process.
Build output goes to standard error; each run's result object is the
last line it prints to standard output.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag(argv, name, default):
    if name in argv[:-1]:
        return argv[argv.index(name) + 1]
    return default


def main(argv):
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    traced = flag(argv, "--trace", "0") == "1"
    binary = os.path.join(target, "release", "perfbench-trace" if traced else "perfbench")
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
