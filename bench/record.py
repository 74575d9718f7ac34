"""Record the output digests every benchmark run is checked against.

    python3 bench/record.py [workload ...]

Runs one fully checked sweep of each workload and writes the digest of
every operation's output to bench/expected.json.  Re-record only when a
change to the program's output is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import harness
from workloads import WORKLOADS

RECORDED = ("hm-random", "spines-equiv", "eval-wide", "cli-small", "smoke")


def main(argv) -> int:
    names = argv or RECORDED
    path = os.path.join(harness.BENCH_DIR, "expected.json")
    expected = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            expected = json.load(fh)
    for name in names:
        workdir = os.path.join(harness.BENCH_DIR, ".work", f"record-{os.getpid()}")
        try:
            plan, _ = harness.set_up(WORKLOADS[name], workdir)
            problems = []
            sweep = harness.run_sweep(plan, range(len(plan.ops)), {}, problems,
                                      full=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            print(f"{name}: {len(problems)} operations failed their checks; "
                  f"first: {problems[0]}", file=sys.stderr)
            return 1
        expected[name] = dict(sorted(sweep.digests.items()))
        print(f"{name}: {len(sweep.digests)} digests, "
              f"{sweep.wall_ns / 1e9:.2f} s")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
