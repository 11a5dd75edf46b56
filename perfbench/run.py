#!/usr/bin/env python3
"""Build and run the DD-POLICE benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload attack-100k --seed 1 --seconds 20 --trace 0

Workloads: attack-100k, churn-sketch-20k, wire-flood-60. `--trace 0` prints
the end-to-end metrics, `--trace 1` runs the traced variant and prints the
per-layer metrics; both end with one JSON line on stdout. Any further
options (for example `--plant snapshot-bit-flip`) go to the benchmark
binary unchanged.

The binary is built in release mode from this checkout's sources into
$CARGO_TARGET_DIR (default `.bench_build`); cargo's own output goes to
stderr. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "ddp-perfbench")
    trace_dir = os.path.join(target, "perfbench-traces")
    run = subprocess.run([binary, *sys.argv[1:], "--trace-dir", trace_dir])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
