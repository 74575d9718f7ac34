"""Benchmark entry point.

    python3 bench/run.py --workload hm-random --seed 1 --seconds 20 --trace 0

Runs one workload in this interpreter and prints its metrics, one per
line, then a last line of JSON: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from the traced half of the run.  The full
record, with run metadata, goes to bench/out/.  Run each workload in a
fresh interpreter so that memory peaks and caches stay its own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import harness
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = os.path.join(harness.BENCH_DIR, ".work", str(os.getpid()))
    try:
        result, record = harness.run(args.workload, args.seed, args.seconds,
                                     args.trace,
                                     os.path.join(harness.BENCH_DIR, "out"),
                                     workdir)
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {k: record[k] for k in ("workload", "seed", "python", "commit",
                                    "nproc", "recursion_limit")}
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ratio")
    for p in record["problems"][:5]:
        print(f"problem {p['op']}: {'; '.join(p['problems'])}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
