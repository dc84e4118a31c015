#!/usr/bin/env python3
"""Build hostbench with its release profile, then run it.

Usage, from the repository root:

    python3 hostbench/run.py --workload kernel-ilp4 --seed 42 --seconds 30 --trace 0

Arguments go to the benchmark unchanged. The build output goes to
stderr, so the last line of stdout is the benchmark's result. The binary
runs as a child process rather than through `cargo run`, so that cargo
stays out of its timings. CARGO_TARGET_DIR is honoured as cargo
honours it: a relative path is taken from the current directory.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, check=False)
    if build.returncode != 0:
        return build.returncode
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    binary = pathlib.Path.cwd() / target / "release" / "hostbench"
    return subprocess.run([str(binary), *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
