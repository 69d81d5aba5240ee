#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, for each workload.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Runs ``run.py`` once per workload, each in a fresh process, and prints the
end-to-end metrics (with ``--trace``, the per-layer metrics), the sample
counts, the error rate and whether every output passed the gate.  Exits 1
if any output was wrong.
"""

from __future__ import annotations

import argparse
import collections
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    all_correct = True
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        detail_line, result_line = done.stdout.splitlines()[-2:]
        detail, result = json.loads(detail_line), json.loads(result_line)
        all_correct &= result["correct"]
        samples = detail.get("samples", {})
        print(f"== {workload}  seed {args.seed}  correct={result['correct']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  "
              f"error_rate={detail['error_rate']:.4f} (ratio)")
        for name, metric in result["metrics"].items():
            count = f"  n={samples[name]}" if name in samples else ""
            print(f"   {name:62s} {metric['value']:>16.6g} {metric['unit']}{count}")
        failures = collections.Counter((" ".join(f["argv"]), f["reason"])
                                       for f in detail["failures"])
        for (argv, reason), count in failures.items():
            print(f"   failed {count}x: {argv}: {reason}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
