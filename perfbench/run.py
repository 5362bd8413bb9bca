#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (the
simulator library plus the grpbench program, Release) under
$CARGO_TARGET_DIR/grpbench, default .bench_build/grpbench, then runs
grpbench with the given arguments; its last stdout line is the JSON
result. Build output goes to stderr. Exits with grpbench's code, or 1
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "grpbench")


def build(targets=("grpbench",)):
    """Configure and build @p targets; returns the build dir."""
    out = build_dir()
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", out, "-j2", "--target", *targets],
                   check=True, **quiet)
    return out


def main():
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(out, "grpbench"),
                           *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
