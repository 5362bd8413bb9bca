#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. Builds perfbench/ (see run.py), runs
the arithmetic tests (grpbench_tests), then checks the determinism
digests grpbench prints, at the workloads' own windows, with
--seconds 0 (one round; two, untraced then traced, with --trace 1):

  - equal at 1 and 2 sweep workers,
  - equal between a traced and an untraced invocation,
  - equal across two invocations with the same seed,
  - different across seeds, so the seed reaches the program.

Exits 0 when every check passes.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("paper-grid", "cold-observed")
failures = []


def grpbench(out, workload, seed, trace=0, workers=None):
    """Run the fewest rounds; returns {label: digest} and the total."""
    args = [os.path.join(out, "grpbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    if workers:
        args += ["--workers", str(workers)]
    proc = subprocess.run(args, capture_output=True, text=True)
    if proc.returncode != 0:
        failures.append(f"{' '.join(args)} exited {proc.returncode}:\n"
                        f"{proc.stdout[-2000:]}")
        return {}, None
    digests, total = {}, None
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["digest"]:
            digests[parts[1]] = parts[2]
        elif parts[:1] == ["digest-round"]:
            digests[f"round {parts[1]} {parts[2]}"] = parts[3]
        elif parts[:1] == ["digest-all"]:
            total = parts[1]
    return digests, total


def check(name, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def main():
    out = run.build(("grpbench", "grpbench_tests"))
    tests = subprocess.run([os.path.join(out, "grpbench_tests")])
    check("arithmetic tests (grpbench_tests)", tests.returncode == 0)

    for workload in WORKLOADS:
        one, _ = grpbench(out, workload, 7, workers=1)
        two, _ = grpbench(out, workload, 7, workers=2)
        check(f"{workload}: digests equal at 1 and 2 workers",
              bool(one) and one == two)

    for workload in WORKLOADS:
        untraced, total = grpbench(out, workload, 7)
        traced, _ = grpbench(out, workload, 7, trace=1)
        again, total_again = grpbench(out, workload, 7)
        other, total_other = grpbench(out, workload, 8)
        check(f"{workload}: digests equal traced and untraced",
              total is not None and
              traced.get("round 1 traced") == total)
        check(f"{workload}: digests equal across invocations",
              bool(untraced) and untraced == again and total == total_again)
        check(f"{workload}: digests differ across seeds",
              total is not None and total_other is not None and
              total != total_other)

    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
