"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload delta-10k --seed 1 --seconds 12 --trace 0

Paths resolve from this file, so it runs from any directory.  It prints
the environment block, every metric by name with its unit and every
gate that failed, then one JSON object as the last line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics measured against a live ``repro serve``
daemon; ``--trace 1`` reports the per-layer metrics of a traced
in-process replay of the same seeded ops.  Exits 0 only when every gate
passed, and 2 without a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-fresh", "delta-10k", "cache-churn", "verify-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"perfbench: no program sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from runner import run_workload

    # A SIGTERM must still unwind through the daemon teardown.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    rundir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), ROOT, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for line in result.lines():
        print(line)
    print(json.dumps(result.summary()), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
